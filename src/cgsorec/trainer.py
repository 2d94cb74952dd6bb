"""Unconditional training for both diffusion models.

The trainer only ever sees raw interaction rows (R for the item model,
S for the social model) — condition vectors exist solely at inference
time, so nothing here accepts one.  Runs are bit-reproducible: seeded
shuffling, seeded timestep/noise draws, and a fixed optimizer make the
checkpoint a pure function of (data, config, schedule).  Both models
step in float32; validation and checkpoints see the exact float64
upcast of the float32 weights, so the `<f8` checkpoint layout and
float64 inference are unchanged.  The records a run takes and returns,
TrainConfig and Checkpoint, and their files belong to `store`.

Two cores, used only where they pay: the gradient steps run at
OpenBLAS's default thread count, and after each one its workers are
released (blas.release_blas_workers) instead of spinning through the
one-core work that follows.  Each batch's Adam update runs on one
helper thread, in the caller's context (so under its np.errstate),
while this thread draws the next batch's timesteps and noise from the
same stream in the same order and gathers its rows; the next gradient
step waits for the update.  Every update reads and writes what it would
have in a loop on one thread, so checkpoints and logs are the same
bytes.  The helper lives as long as train_model.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .blas import release_blas_workers
from .corpus import canonical_rows
from .denoiser import DenoiserParams, ParamGrads, init_params, loss_and_grad
from .errors import ConfigError, NumericError
from .schedule import NoiseSchedule
from .store import Checkpoint, EpochStats, TrainConfig, non_finite
from .store import load_checkpoint, save_checkpoint  # noqa: F401  (bench/checks.py imports these)

# The dtype both models step in (train_model).
TRAIN_DTYPE = np.float32


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
    theta -= lr*(m/corr1) / (sqrt(v/corr2) + eps_hat).  It computes in
    the dtype of params, which the moments share, so the result is
    bitwise that of the whole-tensor expressions in that dtype.
    """
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    tensors = list(params.weights) + list(params.biases)
    gradients = list(grads.weights) + list(grads.biases)
    # Slices along the first axis per block, and the largest block.
    rows = [max(1, ADAM_BLOCK // max(a[:1].size, 1)) for a in tensors]
    scratch = np.empty((2, max(r * a[:1].size for r, a in zip(rows, tensors))), tensors[0].dtype)
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
    helper: ThreadPoolExecutor,
) -> float:
    """One pass over `rows` in the epoch's seeded batches; returns the mean
    batch loss.  Each batch goes to the step as sparse rows, and every
    batch array is freed on return, before the epoch's validation.  Each
    Adam update runs on `helper` (module docstring); the next gradient
    step waits for it, and so does every way out of the epoch."""
    n_rows, width = rows.shape
    perm = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_rows)
    rng_noise = np.random.default_rng([cfg.seed, 2, epoch])
    total = 0.0
    n_batches = 0
    update = None
    try:
        for start in range(0, n_rows, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            t = rng_noise.integers(1, sched.T + 1, size=len(idx))
            eps = rng_noise.standard_normal((len(idx), width), dtype=TRAIN_DTYPE)
            x0 = rows[idx]
            if update is not None:
                update.result()
            try:
                loss, grads = loss_and_grad(params, x0, t, eps, sched)
            except NumericError as err:
                raise NumericError(
                    f"{kind} epoch {epoch} batch {n_batches + 1}: {err}"
                ) from err
            release_blas_workers()
            # the caller's np.errstate, a context variable, covers the update
            update = helper.submit(copy_context().run, optimizer_step, params, grads, state, cfg)
            total += loss
            n_batches += 1
    finally:
        if update is not None:
            update.result()
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


def float32_params(params: DenoiserParams, source: str) -> DenoiserParams:
    """params rounded once to TRAIN_DTYPE.  A value that would round to a
    non-finite one (|w| above float32's largest, about 3.4e38) is a
    NumericError naming its tensor and `source`."""
    with np.errstate(over="ignore"):
        rounded = params.astype(TRAIN_DTYPE)
    name = non_finite(rounded)
    if name is not None:
        raise NumericError(
            f"{name} in {source} holds a value beyond the largest of the float32 "
            f"training step, {float(np.finfo(TRAIN_DTYPE).max):.3g}"
        )
    return rounded


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

    The model steps in float32 (TRAIN_DTYPE): init_params' draw, or the
    resumed params, are rounded to it once, and each batch's noise is
    drawn in it.  Validation and the returned checkpoint get the exact
    float64 upcast of the float32 weights, so the saved checkpoint is the
    model validation scored.

    Each epoch draws its shuffle and noise from streams keyed by the
    epoch number, so resuming from a checkpoint (its params, from epoch
    `resume.epoch + 1`, with its valid_metric as the one to beat unless
    NaN) replays the batches an unbroken run would have seen.  Optimizer
    moments restart at zero.  A resumed run that never beats the
    checkpoint returns its params unrounded.  A checkpoint of another
    model (tag, widths or schedule) or training config (any field but
    epochs) is a ConfigError naming each field that differs; one whose
    values float32 cannot hold is a NumericError (float32_params).
    """
    rows = canonical_rows(data)
    width = rows.shape[1]
    layer_dims = (width, *hidden_dims, width)
    if resume is None:
        params = init_params(layer_dims, time_embed_dim, seed=cfg.seed, model_tag=kind)
        params = params.astype(TRAIN_DTYPE)
        start_epoch, best_metric, best_params = 1, -np.inf, None
    else:
        mismatch = _mismatch(resume, kind, layer_dims, time_embed_dim, sched, cfg)
        if mismatch:
            raise ConfigError(
                "the checkpoint to resume holds another model or training config "
                "(checkpoint != config): " + "; ".join(mismatch)
            )
        params = float32_params(resume.params, f"the {kind} checkpoint to resume")
        start_epoch = resume.epoch + 1
        best_metric = -np.inf if np.isnan(resume.valid_metric) else resume.valid_metric
        best_params = resume.params.copy()
    state = AdamState.zeros_like(params)

    best_epoch = start_epoch - 1
    stale = 0
    history = []

    with ThreadPoolExecutor(1) as helper:
        for epoch in range(start_epoch, cfg.epochs + 1):
            epoch_loss = _train_epoch(kind, epoch, params, state, rows, cfg, sched, helper)
            # the next batch's loss checks every other step; the epoch's last
            # step could otherwise ship an overflowed weight
            name = non_finite(params)
            if name is not None:
                raise NumericError(f"{kind} epoch {epoch}: non-finite {name} after the last step")

            metric = None
            if validate is not None and epoch % cfg.valid_every == 0:
                shipped = params.astype(np.float64)
                metric = validate(shipped)
                if metric > best_metric:
                    best_metric = metric
                    best_params = shipped
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
        best_params, best_metric, best_epoch = params.astype(np.float64), float("nan"), cfg.epochs
    return Checkpoint(
        params=best_params,
        sched=sched,
        config=cfg,
        epoch=best_epoch,
        valid_metric=float(best_metric),
        history=history,
    )
