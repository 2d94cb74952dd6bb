"""Unconditional training for both diffusion models, plus checkpoint I/O.

The trainer only ever sees raw interaction rows (R for the item model,
S for the social model) — condition vectors exist solely at inference
time, so nothing here accepts one.  Runs are bit-reproducible: seeded
shuffling, seeded timestep/noise draws, and a fixed optimizer make the
checkpoint a pure function of (data, config, schedule).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .denoiser import DenoiserParams, ParamGrads, init_params, loss_and_grad
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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1 or self.valid_every < 1:
            raise ConfigError("patience and valid_every must be >= 1")


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
class Checkpoint:
    params: DenoiserParams
    sched: NoiseSchedule
    config: TrainConfig
    epoch: int
    valid_metric: float


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


@dataclass
class EpochStats:
    epoch: int
    loss: float
    valid_metric: float | None


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


def train_model(
    kind: str,
    data,
    cfg: TrainConfig,
    sched: NoiseSchedule,
    *,
    hidden_dims=(200, 600),
    time_embed_dim: int = 16,
    valid_target=None,
    valid_mask=None,
    init: DenoiserParams | None = None,
    start_epoch: int = 1,
    best_metric_init: float = -np.inf,
    history: list[EpochStats] | None = None,
    log=None,
) -> Checkpoint:
    """Train a denoiser on the rows of `data`; return the best checkpoint.

    kind tags the model ("CGD" for item rows, "CSD" for social rows) and
    is stored in the checkpoint.  When valid_target (a sparse matrix of
    held-out positives, same shape as data) is given, each epoch scores
    all rows by unconditional inference, ranks with valid_mask entries
    excluded, and early-stops after `patience` epochs without a new best
    validation Recall@10; otherwise the final epoch's parameters win.

    Each epoch draws its shuffle and noise from streams keyed by the
    epoch number, so resuming (init + start_epoch from a previous
    checkpoint) replays the exact batches an unbroken run would have
    seen.  Optimizer moments restart at zero on resume.
    """
    rows = sp.csr_matrix(data, dtype=np.float64, copy=True)
    rows.sum_duplicates()
    width = rows.shape[1]
    if init is not None:
        params = init.copy()
    else:
        params = init_params(
            (width, *hidden_dims, width), time_embed_dim, seed=cfg.seed, model_tag=kind
        )
    state = AdamState.zeros_like(params)

    best_params = params.copy()
    best_metric = best_metric_init
    best_epoch = start_epoch - 1
    stale = 0

    for epoch in range(start_epoch, cfg.epochs + 1):
        epoch_loss = _train_epoch(kind, epoch, params, state, rows, cfg, sched)

        metric = None
        if valid_target is not None and epoch % cfg.valid_every == 0:
            from .evaluation import recall_at_k, topk_lists
            from .guidance import STAGE_VALID, unconditional_scores

            scores = unconditional_scores(
                params, sched, rows, T_inf=sched.T, seed=cfg.seed, stage=STAGE_VALID
            )
            lists = topk_lists(scores, 10, mask=valid_mask)
            metric = recall_at_k(lists, valid_target)
            if metric > best_metric:
                best_metric = metric
                best_params = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        if history is not None:
            history.append(EpochStats(epoch=epoch, loss=epoch_loss, valid_metric=metric))
        if log is not None:
            shown = "-" if metric is None else f"{metric:.4f}"
            log(f"[{kind}] epoch {epoch:4d}  loss {epoch_loss:.6f}  valid R@10 {shown}")
        if valid_target is not None and stale >= cfg.patience:
            break

    if valid_target is None or not np.isfinite(best_metric):
        # No validation signal ever arrived; ship the final parameters.
        best_params, best_metric, best_epoch = params, float("nan"), cfg.epochs
    return Checkpoint(
        params=best_params,
        sched=sched,
        config=cfg,
        epoch=best_epoch,
        valid_metric=float(best_metric),
    )


def _param_tensors(params: DenoiserParams) -> list[np.ndarray]:
    """Tensors in declaration order: W0, b0, W1, b1, ..."""
    out = []
    for w, b in zip(params.weights, params.biases):
        out.extend([w, b])
    return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write manifest.json + params.bin (little-endian f64) into `path`."""
    import os

    os.makedirs(path, exist_ok=True)
    tensors = _param_tensors(ckpt.params)
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


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a checkpoint; forward outputs are bitwise equal post-load.

    A tensor holding a non-finite value raises NumericError naming it.
    """
    import os

    manifest_path = os.path.join(path, "manifest.json")
    blob_path = os.path.join(path, "params.bin")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise IntegrityError(f"unreadable manifest {manifest_path}: {err}") from err
    try:
        layer_dims = tuple(int(d) for d in manifest["layer_dims"])
        time_embed_dim = int(manifest["time_embed_dim"])
        shapes = [tuple(int(d) for d in s) for s in manifest["tensor_shapes"]]
        sched_info = manifest["schedule"]
        cfg = TrainConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as err:
        raise IntegrityError(f"manifest missing/invalid field: {err}") from err

    fan_ins = [layer_dims[0] + time_embed_dim] + list(layer_dims[1:-1])
    expected = []
    for fan_in, fan_out in zip(fan_ins, layer_dims[1:]):
        expected.extend([(fan_in, fan_out), (fan_out,)])
    if shapes != expected:
        raise IntegrityError(
            f"tensor_shapes {shapes} inconsistent with layer_dims {layer_dims}"
        )
    total = sum(int(np.prod(s)) for s in shapes)
    try:
        raw = np.fromfile(blob_path, dtype="<f8")
    except OSError as err:
        raise IntegrityError(f"unreadable params blob {blob_path}: {err}") from err
    if raw.size != total:
        raise IntegrityError(
            f"params.bin holds {raw.size} doubles, manifest expects {total}"
        )
    tensors = []
    offset = 0
    for s in shapes:
        size = int(np.prod(s))
        tensors.append(raw[offset : offset + size].reshape(s).astype(np.float64))
        offset += size
    tag = str(manifest["model_tag"])
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
    sched = make_schedule(
        int(sched_info["T"]),
        float(sched_info["beta_start"]),
        float(sched_info["beta_end"]),
    )
    return Checkpoint(
        params=params,
        sched=sched,
        config=cfg,
        epoch=int(manifest["epoch"]),
        valid_metric=float(manifest["valid_metric"]),
    )
