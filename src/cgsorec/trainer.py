"""Unconditional training for both diffusion models, plus checkpoint I/O.

The trainer only ever sees raw interaction rows (R for the item model,
S for the social model) — condition vectors exist solely at inference
time, so nothing here accepts one.  Runs are bit-reproducible: seeded
shuffling, seeded timestep/noise draws, and a fixed optimizer make the
checkpoint a pure function of (data, config, schedule).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .corpus import canonical_rows
from .denoiser import DenoiserParams, ParamGrads, init_params, loss_and_grad, param_shapes
from .errors import ConfigError, IntegrityError, NumericError
from .schedule import NoiseSchedule, make_schedule

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    seed: int
    batch_size: int = 400
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_hat: float = 1e-8
    patience: int = 20
    valid_every: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("epochs", "batch_size", "patience", "valid_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: DenoiserParams) -> "AdamState":
        tensors = list(params.weights) + list(params.biases)
        return cls(
            step=0,
            m=[np.zeros_like(a) for a in tensors],
            v=[np.zeros_like(a) for a in tensors],
        )


@dataclass
class EpochStats:
    epoch: int
    loss: float
    valid_metric: float | None


@dataclass
class Checkpoint:
    """A trained denoiser: what `infer` reads and what `train_model`
    resumes from.  `history` lists every epoch of the run that returned
    it; it is not saved, so a loaded checkpoint's history is empty."""

    params: DenoiserParams
    sched: NoiseSchedule
    config: TrainConfig
    epoch: int
    valid_metric: float
    history: list[EpochStats] = field(default_factory=list)


# Entries per block of an in-place Adam update: a block of theta, g, m, v
# and the scratch stays in cache through all of its operations.
ADAM_BLOCK = 16384


def _blocks(a: np.ndarray, rows: int):
    """Views of `a` along its first axis, `rows` slices at a time."""
    return (a[i : i + rows] for i in range(0, len(a), rows))


def optimizer_step(
    params: DenoiserParams, grads: ParamGrads, state: AdamState, cfg: TrainConfig
) -> tuple[DenoiserParams, AdamState]:
    """One Adam update with bias correction; mutates params/state in place.

    Each tensor is updated in blocks of about ADAM_BLOCK entries through
    one scratch buffer, with the operations of the textbook update in
    the same order: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    theta -= lr*(m/corr1) / (sqrt(v/corr2) + eps_hat).  The result is
    bitwise that of the whole-tensor expressions.
    """
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    tensors = list(params.weights) + list(params.biases)
    gradients = list(grads.weights) + list(grads.biases)
    # Slices along the first axis per block, and the largest block.
    rows = [max(1, ADAM_BLOCK // max(a[:1].size, 1)) for a in tensors]
    scratch = np.empty((2, max(r * a[:1].size for r, a in zip(rows, tensors))))
    for theta, g, m, v, r in zip(tensors, gradients, state.m, state.v, rows):
        for th, gb, mb, vb in zip(*(_blocks(a, r) for a in (theta, g, m, v))):
            s1, s2 = (s[: gb.size].reshape(gb.shape) for s in scratch)
            np.multiply(1.0 - b1, gb, out=s1)
            mb *= b1
            mb += s1
            np.multiply(1.0 - b2, gb, out=s1)
            s1 *= gb
            vb *= b2
            vb += s1
            np.divide(mb, corr1, out=s1)
            s1 *= cfg.learning_rate
            np.divide(vb, corr2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += cfg.epsilon_hat
            s1 /= s2
            th -= s1
    return params, state


def _train_epoch(
    kind: str,
    epoch: int,
    params: DenoiserParams,
    state: AdamState,
    rows: sp.csr_matrix,
    cfg: TrainConfig,
    sched: NoiseSchedule,
) -> float:
    """One pass over `rows` in the epoch's seeded batches; returns the mean
    batch loss.  Each batch goes to the step as sparse rows, and every
    batch array is freed on return, before the epoch's validation."""
    n_rows, width = rows.shape
    perm = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_rows)
    rng_noise = np.random.default_rng([cfg.seed, 2, epoch])
    total = 0.0
    n_batches = 0
    for start in range(0, n_rows, cfg.batch_size):
        idx = perm[start : start + cfg.batch_size]
        t = rng_noise.integers(1, sched.T + 1, size=len(idx))
        eps = rng_noise.standard_normal((len(idx), width))
        try:
            loss, grads = loss_and_grad(params, rows[idx], t, eps, sched)
        except NumericError as err:
            raise NumericError(
                f"{kind} epoch {epoch} batch {n_batches + 1}: {err}"
            ) from err
        optimizer_step(params, grads, state, cfg)
        total += loss
        n_batches += 1
    return total / max(n_batches, 1)


def _mismatch(resume, kind: str, layer_dims, time_embed_dim, sched, cfg) -> list[str]:
    """`field checkpoint-value != run-value` for each field of the model,
    and of the training config but epochs, that differs."""
    p, s = resume.params, resume.sched
    checked = [
        ("model_tag", p.model_tag, kind),
        ("layer_dims", list(p.layer_dims), list(layer_dims)),
        ("time_embed_dim", p.time_embed_dim, time_embed_dim),
        ("schedule.T", s.T, sched.T),
        ("schedule.beta_start", float(s.beta[0]), float(sched.beta[0])),
        ("schedule.beta_end", float(s.beta[-1]), float(sched.beta[-1])),
    ]
    checked += [(f"config.{f.name}", getattr(resume.config, f.name), getattr(cfg, f.name))
                for f in fields(TrainConfig) if f.name != "epochs"]
    return [f"{name} {ours!r} != {theirs!r}" for name, ours, theirs in checked if ours != theirs]


def train_model(
    kind: str,
    data,
    cfg: TrainConfig,
    sched: NoiseSchedule,
    *,
    hidden_dims=(200, 600),
    time_embed_dim: int = 16,
    validate=None,
    resume: Checkpoint | None = None,
    log=None,
) -> Checkpoint:
    """Train a denoiser on the rows of `data`; return the best checkpoint.

    kind tags the model ("CGD" for item rows, "CSD" for social rows) and
    is stored in the checkpoint.  When validate (params -> metric, higher
    is better; pipeline.recall_validator) is given, it runs every
    `valid_every`-th epoch, and training early-stops after `patience`
    validations without a new best; otherwise the final epoch's
    parameters win.  The returned checkpoint's history lists every
    epoch this run trained.

    Each epoch draws its shuffle and noise from streams keyed by the
    epoch number, so resuming from a checkpoint (its params, from epoch
    `resume.epoch + 1`, with its valid_metric as the one to beat unless
    NaN) replays the batches an unbroken run would have seen.  Optimizer
    moments restart at zero.  A checkpoint of another model (tag, widths
    or schedule) or training config (any field but epochs) is a
    ConfigError naming each field that differs.
    """
    rows = canonical_rows(data)
    width = rows.shape[1]
    layer_dims = (width, *hidden_dims, width)
    if resume is None:
        params = init_params(layer_dims, time_embed_dim, seed=cfg.seed, model_tag=kind)
        start_epoch, best_metric = 1, -np.inf
    else:
        mismatch = _mismatch(resume, kind, layer_dims, time_embed_dim, sched, cfg)
        if mismatch:
            raise ConfigError(
                "the checkpoint to resume holds another model or training config "
                "(checkpoint != config): " + "; ".join(mismatch)
            )
        params = resume.params.copy()
        start_epoch = resume.epoch + 1
        best_metric = -np.inf if np.isnan(resume.valid_metric) else resume.valid_metric
    state = AdamState.zeros_like(params)

    best_params = params.copy()
    best_epoch = start_epoch - 1
    stale = 0
    history = []

    for epoch in range(start_epoch, cfg.epochs + 1):
        epoch_loss = _train_epoch(kind, epoch, params, state, rows, cfg, sched)

        metric = None
        if validate is not None and epoch % cfg.valid_every == 0:
            metric = validate(params)
            if metric > best_metric:
                best_metric = metric
                best_params = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        history.append(EpochStats(epoch=epoch, loss=epoch_loss, valid_metric=metric))
        if log is not None:
            shown = "-" if metric is None else f"{metric:.4f}"
            log(f"[{kind}] epoch {epoch:4d}  loss {epoch_loss:.6f}  valid R@10 {shown}")
        if validate is not None and stale >= cfg.patience:
            break

    if validate is None or not np.isfinite(best_metric):
        # No validation signal ever arrived; ship the final parameters.
        best_params, best_metric, best_epoch = params, float("nan"), cfg.epochs
    return Checkpoint(
        params=best_params,
        sched=sched,
        config=cfg,
        epoch=best_epoch,
        valid_metric=float(best_metric),
        history=history,
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write manifest.json + params.bin (little-endian f64) into `path`."""
    os.makedirs(path, exist_ok=True)
    # declaration order: W0, b0, W1, b1, ...
    tensors = [a for pair in zip(ckpt.params.weights, ckpt.params.biases) for a in pair]
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_tag": ckpt.params.model_tag,
        "layer_dims": list(ckpt.params.layer_dims),
        "time_embed_dim": ckpt.params.time_embed_dim,
        "tensor_shapes": [list(a.shape) for a in tensors],
        "schedule": {
            "T": ckpt.sched.T,
            "beta_start": float(ckpt.sched.beta[0]),
            "beta_end": float(ckpt.sched.beta[-1]),
        },
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "valid_metric": ckpt.valid_metric,
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, "params.bin"), "wb") as fh:
        for a in tensors:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _json(value, name: str, kind, nan: bool = False):
    """`value` if its JSON type is `kind`, else a TypeError naming the
    field `name`.  int is an integer, never a bool, a fraction or a
    string; float is a finite number (NaN too when `nan`), read as a
    float."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{name} is not of type {kind.__name__}: {value!r}")
    if kind is float:
        value = float(value)
        if not (math.isfinite(value) or (nan and math.isnan(value))):
            raise TypeError(f"{name} is not finite: {value!r}")
    return value


def _ints(value, name: str) -> tuple[int, ...]:
    return tuple(_json(v, f"{name}[{i}]", int) for i, v in enumerate(_json(value, name, list)))


def _table(manifest: dict, name: str, kinds: dict, build):
    """build(**manifest[name]), that object holding exactly the fields of
    `kinds` (field -> JSON type), each read by its type; every refusal,
    build's included, names its field as name.field."""
    table = _json(manifest[name], name, dict)
    for fault, keys in ("unknown", table.keys() - kinds), ("missing", kinds.keys() - table):
        if keys:
            raise TypeError(f"{name} has {fault} fields {sorted(f'{name}.{k}' for k in keys)}")
    try:
        return build(**{k: _json(v, f"{name}.{k}", kinds[k]) for k, v in table.items()})
    except ConfigError as err:  # build's refusals lead with the field
        raise ValueError(f"{name}.{err}") from err


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a checkpoint; forward outputs are bitwise equal post-load.

    Each manifest field is read by its JSON type and never converted.  A
    field that is missing, of the wrong type or invalid (a format other
    than CHECKPOINT_FORMAT, or a schedule or training config the program
    would refuse) raises IntegrityError naming it; a tensor holding a
    non-finite value raises NumericError naming it.  Every refusal names
    the file.  The loaded checkpoint's history is empty.
    """
    manifest_path = os.path.join(path, "manifest.json")
    blob_path = os.path.join(path, "params.bin")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:  # a byte that is not UTF-8 is a ValueError
        raise IntegrityError(f"unreadable manifest {manifest_path}: {err}") from err
    try:
        if _json(manifest["format"], "format", int) != CHECKPOINT_FORMAT:
            raise ValueError(f"format {manifest['format']} is not {CHECKPOINT_FORMAT}")
        layer_dims = _ints(manifest["layer_dims"], "layer_dims")
        time_embed_dim = _json(manifest["time_embed_dim"], "time_embed_dim", int)
        shapes = _json(manifest["tensor_shapes"], "tensor_shapes", list)
        shapes = [_ints(s, f"tensor_shapes[{i}]") for i, s in enumerate(shapes)]
        tag = _json(manifest["model_tag"], "model_tag", str)
        kinds = {"T": int, "beta_start": float, "beta_end": float}
        sched = _table(manifest, "schedule", kinds, make_schedule)
        kinds = {f.name: {"int": int, "float": float}[f.type] for f in fields(TrainConfig)}
        cfg = _table(manifest, "config", kinds, TrainConfig)
        epoch = _json(manifest["epoch"], "epoch", int)
        if epoch < 0:  # the epoch streams are seeded by it
            raise ValueError(f"epoch {epoch} is negative")
        valid_metric = _json(manifest["valid_metric"], "valid_metric", float, nan=True)
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise IntegrityError(f"manifest missing/invalid field in {manifest_path}: {err}") from err

    if len(layer_dims) < 3 or shapes != param_shapes(layer_dims, time_embed_dim):
        raise IntegrityError(
            f"{manifest_path}: tensor_shapes {shapes} inconsistent with layer_dims {layer_dims}"
        )
    ends = np.cumsum([np.prod(s) for s in shapes])
    total = int(ends[-1])
    try:
        raw = np.fromfile(blob_path, dtype="<f8")
    except OSError as err:
        raise IntegrityError(f"unreadable params blob {blob_path}: {err}") from err
    if raw.size != total:
        raise IntegrityError(f"{blob_path} holds {raw.size} doubles, manifest expects {total}")
    tensors = [a.reshape(s).astype(np.float64) for a, s in zip(np.split(raw, ends[:-1]), shapes)]
    bad = [i for i, t in enumerate(tensors) if not np.isfinite(t).all()]
    if bad:  # weights are shared, so one bad value reaches every user's output
        name = f"{('weights', 'biases')[bad[0] % 2]}[{bad[0] // 2}]"
        chain = {"CGD": "item", "CSD": "social"}.get(tag, tag)
        raise NumericError(
            f"non-finite {name} in {tag} checkpoint {blob_path}: every "
            f"{chain} chain output would be non-finite, first at user 0"
        )
    params = DenoiserParams(
        layer_dims=layer_dims,
        time_embed_dim=time_embed_dim,
        model_tag=tag,
        weights=tensors[0::2],
        biases=tensors[1::2],
    )
    return Checkpoint(
        params=params, sched=sched, config=cfg, epoch=epoch, valid_metric=valid_metric
    )
