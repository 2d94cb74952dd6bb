"""Condition-guided reverse diffusion and the joint two-model inference.

Layout of a run: the social model denoises each user's neighbor row
under a co-interaction condition, the denoised rows are re-binarized
(degree-preserving, ranked by evaluation.top_k_rows like every top-K
list), the rebuilt graph produces an inverted-popularity
item condition, and the item model denoises interaction rows under it.
Guidance mixes the model mean toward the mean evaluated at the clean
condition vector at every step; a second, unconditional chain run on the
corrupted condition vector is blended into the final output.

The chain runs in the denoiser's first hidden width.  The denoiser sees
a row x only through z = x @ W0x, W0x being the rows of its first
weight matrix that multiply x; the posterior mean is linear in x_t and
the output head is linear, so a step maps z to
c_xt * z + c_x0 * (h_t(z) @ head_z + bias_z), with head_z = W_out @ W0x
and bias_z = b_out @ W0x.  Since c_xt(1) = 0, the chain leaves hidden
width once, through the output head at t = 1.  It equals stepping
full-width rows with predict_x0 and model_mean up to rounding in the
order of sums; the tests hold it to that item-space stepper at
rtol 1e-10.

Determinism: corruption noise comes from a stream keyed by
(seed XOR user_id, stage), stochastic-step noise from one keyed by
(seed, stage, chunk start), so results do not depend on which chains
are skipped; rows are processed in fixed 512-row chunks so BLAS sees
the same shapes on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import (
    InteractionMatrix,
    ItemGroups,
    SocialMatrix,
    copurchase,
    item_condition,
    longtail_submatrix,
    social_condition,
    social_preference,
)
from .denoiser import DenoiserParams, last_hidden
from .denoiser import predict_x0  # noqa: F401  (bench/spans.py wraps it here)
from .errors import ConfigError, NumericError, ShapeError
from .evaluation import top_k_rows
from .schedule import NoiseSchedule, model_mean, posterior_coeffs, q_sample
from .trainer import Checkpoint

# Independent noise streams per user; values are arbitrary but frozen,
# since checkpoints and reports produced under them must replay exactly.
# A phase's chain over its condition rows runs at the phase's stage + 1.
STAGE_SOCIAL = 0
STAGE_SOCIAL_COND = 1
STAGE_ITEM = 2
STAGE_ITEM_COND = 3
STAGE_VALID = 4
STAGE_NAMES = ("social", "social-condition", "item", "item-condition", "validation")

CHUNK = 512


@dataclass(frozen=True)
class GuidanceConfig:
    """Inference-time knobs; training never sees any of these.

    eta/gamma steer the per-step mean of the social/item chains toward
    the condition vector; w_s/w_r blend in the chain run on the corrupted
    condition; delta scales the co-interaction graph inside the social
    condition; lam scales the inverted social preference inside the item
    condition.  T_inf=None runs the full schedule.
    """

    eta: float = 0.0
    gamma: float = 0.0
    w_s: float = 0.0
    w_r: float = 0.0
    delta: float = 0.0
    lam: float = 0.0
    T_inf: int | None = None
    stochastic: bool = False
    social_keep: int | None = None

    def __post_init__(self):
        for name in ("eta", "gamma", "w_s", "w_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.delta < 0 or self.lam < 0:
            raise ConfigError("delta and lam must be >= 0")
        if self.T_inf is not None and self.T_inf < 1:
            raise ConfigError(f"T_inf must be >= 1, got {self.T_inf}")
        if self.social_keep is not None and self.social_keep < 0:
            raise ConfigError(f"social_keep must be >= 0, got {self.social_keep}")


def resolve_T_inf(cfg: GuidanceConfig, sched: NoiseSchedule) -> int:
    if cfg.T_inf is None:
        return sched.T
    if cfg.T_inf > sched.T:
        raise ConfigError(f"T_inf={cfg.T_inf} exceeds schedule length {sched.T}")
    return cfg.T_inf


def _dense_rows(data, idx) -> np.ndarray:
    """Rows `idx` (index array or slice) of a dense or sparse matrix, as float64."""
    if sp.issparse(data):
        return np.asarray(data[idx].todense(), dtype=np.float64)
    return np.asarray(data[idx], dtype=np.float64)


def _user_eps(seed: int, stage: int, users: np.ndarray, width: int) -> np.ndarray:
    """Corruption noise for a block of users, one stream per (user, stage)."""
    eps = np.empty((len(users), width), dtype=np.float64)
    for j, u in enumerate(users):
        eps[j] = np.random.default_rng([seed ^ int(u), stage]).standard_normal(width)
    return eps


def _chain_rows(
    params: DenoiserParams,
    sched: NoiseSchedule,
    rows,
    cond,
    mix: float,
    cfg: GuidanceConfig,
    seed: int,
    stage: int,
) -> np.ndarray:
    """Reverse chains over clean `rows` (corrupted here to T_inf), each
    step's mean mixed with weight `mix` toward the mean at the clean
    `cond` row, in fixed CHUNK-row blocks.

    Steps run on z = x @ W0x (module docstring); the output head is
    applied once, at t = 1.  Raises NumericError naming the stage and
    the first user whose output is not finite.
    """
    T_inf = resolve_T_inf(cfg, sched)
    n_rows, width = rows.shape
    if width != params.in_dim:
        raise ShapeError(f"row width {width} != model width {params.in_dim}")
    guided = cond is not None and mix > 0.0
    if guided and cond.shape != rows.shape:
        raise ShapeError(f"cond shape {cond.shape} != rows shape {rows.shape}")
    w0x = params.weights[0][:width]
    w_out, b_out = params.weights[-1], params.biases[-1]
    head_z = w_out @ w0x
    bias_z = b_out @ w0x

    def hidden(z, zc, t):
        h = last_hidden(params, z, t)
        return h if zc is None else (1.0 - mix) * h + mix * last_hidden(params, zc, t)

    out = np.empty((n_rows, width), dtype=np.float64)
    for start in range(0, n_rows, CHUNK):
        stop = min(start + CHUNK, n_rows)
        span = slice(start, stop)
        eps = _user_eps(seed, stage, np.arange(start, stop), width)
        z = q_sample(_dense_rows(rows, span), T_inf, eps, sched) @ w0x
        zc = _dense_rows(cond, span) @ w0x if guided else None
        rng = (
            np.random.default_rng([seed, stage, start, 0xD1CE])
            if cfg.stochastic
            else None
        )
        for t in range(T_inf, 1, -1):
            z_mix = z if zc is None else (1.0 - mix) * z + mix * zc
            z = model_mean(z_mix, hidden(z, zc, t) @ head_z + bias_z, t, sched)
            if rng is not None:
                _, _, sigma2 = posterior_coeffs(sched, t)
                z += np.sqrt(sigma2) * (rng.standard_normal((stop - start, width)) @ w0x)
        # c_xt(1) = 0 and c_x0(1) = 1: the last mean is the mixed prediction.
        block = out[start:stop]
        np.matmul(hidden(z, zc, 1), w_out, out=block)
        block += b_out
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            user = start + int(np.argmin(finite))
            raise NumericError(
                f"non-finite {STAGE_NAMES[stage]} chain output, first at user {user}"
            )
    return out


def unconditional_scores(
    params: DenoiserParams,
    sched: NoiseSchedule,
    rows,
    T_inf: int | None = None,
    seed: int = 0,
    stage: int = STAGE_ITEM,
) -> np.ndarray:
    """Plain diffusion denoising of every row; the no-guidance baseline."""
    cfg = GuidanceConfig(T_inf=T_inf)
    return _chain_rows(params, sched, rows, None, 0.0, cfg, seed, stage)


def binarize_social(
    S: SocialMatrix, s_bar: np.ndarray, keep: int | None
) -> SocialMatrix:
    """Turn denoised score rows back into a 0/1 graph.

    Each user keeps its `keep` highest-scoring other users (its degree in
    S when keep is None), at most n - 1; ties break toward the lower user
    id, as in every ranking (evaluation.top_k_rows).
    """
    if keep is not None and keep < 0:
        raise ConfigError(f"keep must be >= 0, got {keep}")
    n = S.n_users
    degrees = np.diff(S.matrix.indptr) if keep is None else np.full(n, keep)
    keep_u = np.minimum(degrees, max(n - 1, 0))
    ids, _ = top_k_rows(s_bar, int(keep_u.max(initial=0)), sp.identity(n, format="csr"))
    # Ids past a row's own keep become n, so they sort behind the kept ones.
    kept = np.arange(ids.shape[1]) < keep_u[:, None]
    neigh = np.sort(np.where(kept, ids, n), axis=1)[kept]
    indptr = np.concatenate(([0], np.cumsum(keep_u)))
    return SocialMatrix(
        sp.csr_matrix((np.ones(len(neigh)), neigh, indptr), shape=(n, n))
    )


def blend(a: np.ndarray, b: np.ndarray | None, w: float) -> np.ndarray:
    """(1 - w) * a + w * b; `a` itself when there is no b or w is 0."""
    if b is None or w == 0.0:
        return a
    return (1.0 - w) * a + w * b


def _chain_pair(
    ckpt: Checkpoint,
    rows,
    cond,
    mix: float,
    w: float,
    cfg: GuidanceConfig,
    seed: int,
    stage: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Chain A over `rows`, guided toward `cond` by `mix`, and chain B over
    `cond` itself at stage + 1, run only when its blend weight w is > 0."""
    out_a = _chain_rows(ckpt.params, ckpt.sched, rows, cond, mix, cfg, seed, stage)
    out_b = None
    if w > 0.0:
        out_b = _chain_rows(ckpt.params, ckpt.sched, cond, None, 0.0, cfg, seed, stage + 1)
    return out_a, out_b


def social_phase(
    ckpt: Checkpoint,
    S: SocialMatrix,
    S_prime: SocialMatrix,
    cfg: GuidanceConfig,
    seed: int,
) -> np.ndarray:
    """Denoised social score rows for all users (chains A/B blended by w_s)."""
    pair = _chain_pair(
        ckpt, S.matrix, S_prime.matrix, cfg.eta, cfg.w_s, cfg, seed, STAGE_SOCIAL
    )
    return blend(*pair, cfg.w_s)


def item_phase(
    ckpt: Checkpoint,
    R: InteractionMatrix,
    R_prime: InteractionMatrix,
    cfg: GuidanceConfig,
    seed: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Both item-side chains, unmixed, so callers can sweep w_r for free."""
    return _chain_pair(
        ckpt, R.matrix, R_prime.matrix, cfg.gamma, cfg.w_r, cfg, seed, STAGE_ITEM
    )


def build_social_condition(
    S: SocialMatrix, R: InteractionMatrix, groups: ItemGroups, delta: float
) -> SocialMatrix:
    """Condition graph: co-interactions over long-tail items blended into S."""
    if delta == 0.0:
        return S
    scpl = copurchase(longtail_submatrix(R, groups))
    return social_condition(S, scpl, delta)


def build_item_condition(
    S_bar: SocialMatrix, R: InteractionMatrix, lam: float
) -> InteractionMatrix:
    """Condition rows: inverted neighbor-popularity counts blended into R."""
    if lam == 0.0:
        return R
    r_social = social_preference(S_bar, R)
    return item_condition(R, r_social, lam)


def joint_chains(
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    R: InteractionMatrix,
    groups: ItemGroups,
    cfg: GuidanceConfig,
    seed: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Everything up to the final w_r blend: runs the social side, builds
    the item condition, and returns the two item chains unmixed.

    Lets a sweep over w_r reuse one pair of chains instead of rerunning
    the whole pipeline per value.
    """
    if S is not None and S.n_users != R.n_users:
        raise ConfigError(f"social users {S.n_users} != interaction users {R.n_users}")
    if cfg.lam > 0:
        if ckpt_social is None or S is None:
            raise ConfigError(
                "lam > 0 builds the item condition from the denoised social "
                "graph; a social model checkpoint and a social matrix are required"
            )
        s_prime = build_social_condition(S, R, groups, cfg.delta)
        s_bar = social_phase(ckpt_social, S, s_prime, cfg, seed)
        S_bar = binarize_social(S, s_bar, cfg.social_keep)
        r_prime = build_item_condition(S_bar, R, cfg.lam)
    else:
        # lam = 0 zeroes the social term of the item condition, so the
        # denoised graph cannot influence the output; skip the social
        # chains entirely (bitwise-identical result, large time save).
        r_prime = R
    return item_phase(ckpt_item, R, r_prime, cfg, seed)


def joint_inference(
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    R: InteractionMatrix,
    groups: ItemGroups,
    cfg: GuidanceConfig,
    seed: int,
) -> np.ndarray:
    """Full pipeline: social denoising -> graph rebuild -> guided item scores.

    Returns an (n_users, n_items) dense score matrix.  With every
    coefficient zero this reduces bitwise to unconditional_scores on R.
    The social side (checkpoint and graph) is only consulted when
    lam > 0; it may be None otherwise.
    """
    return blend(*joint_chains(ckpt_social, ckpt_item, S, R, groups, cfg, seed), cfg.w_r)
