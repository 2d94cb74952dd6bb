"""Fully connected denoiser predicting the clean vector from a noisy one.

The network takes the noisy vector concatenated with a sinusoidal
timestep embedding, applies tanh hidden layers and a linear output head,
and predicts the clean vector directly.  Gradients are exact analytic
backpropagation; there is no autodiff dependency, which keeps checkpoints
byte-reproducible and lets the test suite verify every gradient
coordinate against finite differences.  The training step computes in
its params' dtype (the trainer's float32); inference runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .corpus import canonical_rows
from .errors import ConfigError, NumericError
from .schedule import NoiseSchedule, loss_weights
from .schedule import q_sample  # noqa: F401  (bench/spans.py wraps it here)


def timestep_embedding(t, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps.

    t may be a scalar or a 1-D array; returns shape (dim,) or (len(t), dim).
    Distinct steps in [1, max_period) map to distinct rows.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half, dtype=np.float64) / half)
    args = t[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((len(t), 1))], axis=1)
    return emb[0] if scalar else emb


@dataclass
class DenoiserParams:
    """Weights and biases of the denoiser MLP.

    layer_dims runs input width -> hidden widths -> output width, where
    input and output width both equal the length of the vectors being
    denoised.  weights[0] additionally has time_embed_dim extra input rows
    for the timestep embedding.
    """

    layer_dims: tuple[int, ...]
    time_embed_dim: int
    model_tag: str
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    def astype(self, dtype) -> "DenoiserParams":
        """A copy with every tensor cast to dtype."""
        return replace(
            self,
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
        )

    def copy(self) -> "DenoiserParams":
        return self.astype(self.weights[0].dtype)


@dataclass
class ParamGrads:
    """Gradient arrays shaped exactly like DenoiserParams."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def param_shapes(layer_dims, time_embed_dim: int) -> list[tuple[int, ...]]:
    """Shapes of W0, b0, W1, b1, ...: weights[0] also takes the time
    embedding, so its fan-in is layer_dims[0] + time_embed_dim."""
    fan_ins = [layer_dims[0] + time_embed_dim, *layer_dims[1:-1]]
    shapes = []
    for fan_in, fan_out in zip(fan_ins, layer_dims[1:]):
        shapes.extend([(fan_in, fan_out), (fan_out,)])
    return shapes


def init_params(
    layer_dims, time_embed_dim: int, seed: int, model_tag: str = "CGD"
) -> DenoiserParams:
    """Initialize weights uniform in +-1/sqrt(fan_in), biases zero.

    Deterministic for a fixed seed; at least one hidden layer required.
    """
    layer_dims = tuple(int(d) for d in layer_dims)
    if len(layer_dims) < 3:
        raise ConfigError("denoiser needs at least one hidden layer")
    if any(d <= 0 for d in layer_dims) or time_embed_dim <= 0:
        raise ConfigError(f"zero-width layer in dims {layer_dims} + temb {time_embed_dim}")
    rng = np.random.default_rng(seed)
    shapes = param_shapes(layer_dims, time_embed_dim)
    weights, biases = [], []
    for w_shape, b_shape in zip(shapes[0::2], shapes[1::2]):
        bound = 1.0 / np.sqrt(w_shape[0])
        weights.append(rng.uniform(-bound, bound, size=w_shape))
        biases.append(np.zeros(b_shape))
    return DenoiserParams(
        layer_dims=layer_dims,
        time_embed_dim=time_embed_dim,
        model_tag=model_tag,
        weights=weights,
        biases=biases,
    )


def predict_x0(params: DenoiserParams, x_t: np.ndarray, t) -> np.ndarray:
    """Denoiser output for a single vector or a batch of rows; t is a
    scalar step or one per row.  [x_t, emb(t)] @ W0, tanh hidden layers,
    a linear head: the reference the hidden-width chain is tested against."""
    x_t = np.asarray(x_t, dtype=np.float64)
    single = x_t.ndim == 1
    if single:
        x_t = x_t[None, :]
    if x_t.ndim != 2 or x_t.shape[1] != params.in_dim:
        raise ConfigError(
            f"input width {x_t.shape[-1] if x_t.ndim else '?'} != model width {params.in_dim}"
        )
    emb = timestep_embedding(t, params.time_embed_dim)
    h = np.concatenate([x_t, np.broadcast_to(emb, (len(x_t), params.time_embed_dim))], axis=1)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(h @ w + b)
    out = h @ params.weights[-1] + params.biases[-1]
    return out[0] if single else out


def last_hidden(params: DenoiserParams, z: np.ndarray, t: int) -> np.ndarray:
    """Last hidden activation for rows whose input is already projected.

    z = x @ weights[0][:in_dim], shape (B, first hidden width); the
    timestep embedding enters through the remaining rows of weights[0].
    The prediction is last_hidden(...) @ weights[-1] + biases[-1].
    """
    w0 = params.weights[0]
    emb = timestep_embedding(t, params.time_embed_dim)
    h = np.tanh(z + (emb @ w0[params.in_dim :] + params.biases[0]))
    for w, b in zip(params.weights[1:-1], params.biases[1:-1]):
        h = np.tanh(h @ w + b)
    return h


def corrupt_rows(x0: sp.csr_matrix, ab, eps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """q_sample(x0, t, eps) written into `out`, which may be eps itself.

    x0 is canonical CSR (corpus.canonical_rows) and ab is alpha_bar at
    each row's step: a scalar, or a (B, 1) column.  out becomes
    sqrt(1 - ab) * eps, and sqrt(ab) * x0 is added at x0's stored entries
    only.  The coefficients (float64, from the schedule) and x0's values
    are rounded once to out's dtype, so eps and out of one dtype compute
    in it.  Every product and sum is the IEEE operation of the dense
    formula, since an entry where x0 = 0 contributes +0 there, so the two
    agree bitwise.
    """
    dtype = out.dtype
    np.multiply(np.sqrt(1.0 - ab).astype(dtype), eps, out=out)
    rows = np.repeat(np.arange(x0.shape[0]), np.diff(x0.indptr))
    scale = np.broadcast_to(np.sqrt(ab).astype(dtype), (x0.shape[0], 1))[rows, 0]
    out[rows, x0.indices] += scale * x0.data.astype(dtype, copy=False)
    return out


def loss_and_grad(
    params: DenoiserParams,
    x0,
    t: np.ndarray,
    h: np.ndarray,
    sched: NoiseSchedule,
) -> tuple[float, ParamGrads]:
    """Weighted denoising loss over a batch and its exact gradients.

    Each sample contributes w_t * ||pred - x0||^2 where w_t comes from the
    schedule (1 at t = 1, the SNR-drop weight after); the batch loss is
    the mean, so the learning rate is batch-size invariant.

    x0 (B x n) may be sparse or dense; it is read as canonical CSR and
    never densified.  h is the (B, n + time_embed_dim) input buffer, in
    params' dtype, whose first n columns hold the noise eps: it is
    overwritten with the embedded input [x_t, emb(t)], the noise corrupted
    in place (corrupt_rows) and the time embedding written beside it.  The
    residual is the prediction minus x0 at x0's stored entries, and it is
    dropped once the output layer's gradients are taken.  Every product
    and sum is the IEEE operation of the dense formulas (q_sample, then
    pred - x0), since an entry where x0 = 0 contributes +0, so the loss
    and gradients equal theirs bitwise.  It computes in params' dtype:
    every batch-sized array and the gradients take it, the schedule's
    float64 coefficients are rounded to it once, and the loss is reduced
    in float64.
    """
    dtype = params.weights[0].dtype
    x0 = canonical_rows(x0)
    t = np.asarray(t)
    B, n = x0.shape
    if n != params.in_dim:
        raise ConfigError(f"input width {n} != model width {params.in_dim}")
    shape = (B, n + params.time_embed_dim)
    if h.shape != shape or h.dtype != dtype:
        raise ConfigError(f"input buffer {h.shape} {h.dtype} != {shape} {np.dtype(dtype)}")
    if np.any(t < 1) or np.any(t > sched.T):
        raise ConfigError(f"timestep array outside [1, {sched.T}]")

    eps = h[:, :n]
    corrupt_rows(x0, sched.alpha_bar[t - 1][:, None], eps, out=eps)
    h[:, n:] = timestep_embedding(t, params.time_embed_dim)

    # A diverged model overflows here, and the loss check below, or the
    # trainer's checks of the weights its gradients move, refuses it, so
    # NumPy's overflow warnings would only repeat that refusal.
    with np.errstate(over="ignore", invalid="ignore"):
        acts = [h]
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = acts[-1] @ w
            z += b
            np.tanh(z, out=z)
            acts.append(z)
        g = acts[-1] @ params.weights[-1]
        g += params.biases[-1]
        row_of = np.repeat(np.arange(B), np.diff(x0.indptr))
        g.reshape(-1)[row_of * n + x0.indices] -= x0.data.astype(dtype, copy=False)

        w = loss_weights(sched)[t - 1]
        loss = float(np.mean(w * np.sum(g * g, axis=1, dtype=np.float64)))
        if not np.isfinite(loss):
            raise NumericError("non-finite training loss")

        # Backprop: linear head, tanh hidden layers; the residual g becomes
        # the output gradient and each activation its tanh derivative, in
        # place, and each layer's g is freed as the next one replaces it.
        g *= ((2.0 / B) * w).astype(dtype)[:, None]
        grads_w = [np.empty(0)] * len(params.weights)
        grads_b = [np.empty(0)] * len(params.biases)
        for l in range(len(params.weights) - 1, -1, -1):
            grads_w[l] = acts[l].T @ g
            grads_b[l] = g.sum(axis=0)
            if l > 0:
                g = g @ params.weights[l].T
                a = acts[l]
                a *= a
                np.subtract(1.0, a, out=a)
                g *= a
    return loss, ParamGrads(weights=grads_w, biases=grads_b)
