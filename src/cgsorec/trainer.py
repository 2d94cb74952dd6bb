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

Two cores, one BLAS thread: NumPy's OpenBLAS is held to one thread for
the whole of train_model (blas.one_blas_thread), as inference's chains
are, so checkpoints and logs do not depend on OPENBLAS_NUM_THREADS.  One
helper thread, living as long as train_model, steps the second half of
each batch (_step), then runs its Adam update while this thread draws
the next batch's timesteps and noise from the same stream in the same
order; the next gradient step waits for the update.  The helper runs
plain functions: loss_and_grad and optimizer_step each turn off NumPy's
overflow and invalid-value warnings for their own arithmetic, since the
loss and weight checks refuse what overflows.

Memory: besides the float32 params and Adam moments, an epoch holds one
(batch_size, n + time_embed_dim) input buffer.  Each batch's noise is
drawn into it row by row (the stream of one (B, n) draw), and each half
of the step corrupts its rows in place and writes the time embedding
beside them, so no copy of the noise is made.  A half holds its residual
until the output layer's gradients are taken; Adam reads the summed
gradients and two scratch arrays the size of the largest tensor.  No
other array of a batch lives on when the next is drawn.  Validation,
which scores the float64 upcast in item-width chain blocks, peaks higher.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .blas import one_blas_thread
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


def optimizer_step(
    params: DenoiserParams, grads: ParamGrads, state: AdamState, cfg: TrainConfig
) -> None:
    """One Adam update with bias correction, in place on params and state:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, theta -= (lr*(m/corr1)) /
    (sqrt(v/corr2) + eps_hat), on whole tensors in the dtype of params,
    which the moments share.  Each operation is the textbook one, in its
    order, written through `out=` into two scratch arrays the size of the
    largest tensor.  A diverged update overflows here, and train_model's
    weight check or the next batch's loss refuses it, so NumPy's overflow
    warnings would only repeat that refusal.
    """
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    tensors = list(params.weights) + list(params.biases)
    gradients = list(grads.weights) + list(grads.biases)
    scratch = np.empty((2, max(theta.size for theta in tensors)), dtype=tensors[0].dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, g, m, v in zip(tensors, gradients, state.m, state.v):
            a, b = (s[: theta.size].reshape(theta.shape) for s in scratch)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.multiply(cfg.learning_rate, np.divide(m, corr1, out=a), out=a)
            np.sqrt(np.divide(v, corr2, out=b), out=b)
            theta -= np.divide(a, np.add(b, cfg.epsilon_hat, out=b), out=a)


def _step(params, x0, t, h, sched, helper: ThreadPoolExecutor):
    """loss_and_grad over the batch (x0, t) and its input buffer h: its
    first ceil(B/2) rows on this thread and the rest on `helper`, each
    half's loss and gradients scaled by its share of the batch and added
    first to second.  A one-row batch runs on this thread alone.  Returns,
    or raises the error of a half that failed, once both halves are done."""
    B = x0.shape[0]
    half = -(-B // 2)
    if half == B:
        return loss_and_grad(params, x0, t, h, sched)
    second = helper.submit(loss_and_grad, params, x0[half:], t[half:], h[half:], sched)
    try:
        loss, grads = loss_and_grad(params, x0[:half], t[:half], h[:half], sched)
    finally:
        loss2, grads2 = second.result()
    share, share2 = half / B, (B - half) / B
    for g, g2 in zip(grads.weights + grads.biases, grads2.weights + grads2.biases):
        g *= share
        g2 *= share2
        g += g2
    return loss * share + loss2 * share2, grads


def _train_epoch(
    kind: str,
    epoch: int,
    params: DenoiserParams,
    state: AdamState,
    rows: sp.csr_matrix,
    buffer: np.ndarray,
    cfg: TrainConfig,
    sched: NoiseSchedule,
    helper: ThreadPoolExecutor,
) -> float:
    """One pass over `rows` in the epoch's seeded batches; returns the mean
    batch loss.  Each batch goes to the step as sparse rows and its noise
    in the input buffer (module docstring).  Each Adam update runs on
    `helper`; the next gradient step waits for it, and so does every way
    out of the epoch."""
    n_rows, width = rows.shape
    perm = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_rows)
    rng_noise = np.random.default_rng([cfg.seed, 2, epoch])
    total = 0.0
    n_batches = 0
    update = None
    try:
        for start in range(0, n_rows, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            x0 = rows[idx]
            t = rng_noise.integers(1, sched.T + 1, size=len(idx))
            h = buffer[: len(idx)]
            for row in h:
                rng_noise.standard_normal(out=row[:width], dtype=TRAIN_DTYPE)
            if update is not None:
                update.result()
            try:
                loss, grads = _step(params, x0, t, h, sched, helper)
            except NumericError as err:
                raise NumericError(
                    f"{kind} epoch {epoch} batch {n_batches + 1}: {err}"
                ) from err
            update = helper.submit(optimizer_step, params, grads, state, cfg)
            del grads  # the update holds them, and frees them when done
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

    buffer = None
    with one_blas_thread(), ThreadPoolExecutor(1) as helper:
        for epoch in range(start_epoch, cfg.epochs + 1):
            if buffer is None:
                buffer = np.empty((min(cfg.batch_size, rows.shape[0]), width + time_embed_dim),
                                  dtype=TRAIN_DTYPE)
            epoch_loss = _train_epoch(
                kind, epoch, params, state, rows, buffer, cfg, sched, helper
            )
            # the next batch's loss checks every other step; the epoch's last
            # step could otherwise ship an overflowed weight
            name = non_finite(params)
            if name is not None:
                raise NumericError(f"{kind} epoch {epoch}: non-finite {name} after the last step")

            metric = None
            if validate is not None and epoch % cfg.valid_every == 0:
                buffer = None  # validation, training's peak, holds no batch
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
