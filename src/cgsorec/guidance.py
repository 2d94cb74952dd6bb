"""Condition-guided reverse diffusion and the joint two-model inference.

Layout of a run: the social model denoises each user's neighbor row
under a co-interaction condition, the denoised rows are re-binarized
(degree-preserving, ranked by evaluation.topk_lists like every top-K
list), the rebuilt graph produces an inverted-popularity
item condition, and the item model denoises interaction rows under it.
Guidance mixes the model mean toward the mean evaluated at the clean
condition vector at every step; a second, unconditional chain run on the
corrupted condition vector is blended into the final output.

The chain runs in the denoiser's first hidden width.  The denoiser sees
a row x only through z = x @ W0x, W0x being the rows of its first
weight matrix that multiply x, and step t only through e_t, its timestep
embedding times W0's other rows plus b0, computed once per call; the
posterior mean is linear in x_t and the output head is linear, so a step
maps z to c_xt * z + c_x0 * (h_t(z) @ head_z + bias_z), with h_t(z) the
last hidden layer at z + e_t, head_z = W_out @ W0x and bias_z =
b_out @ W0x.  Since c_xt(1) = 0, the chain leaves hidden width once,
through the output head at t = 1.  It equals stepping full-width rows
with predict_x0 and model_mean up to rounding in the order of sums; the
tests hold it to that item-space stepper at rtol 1e-10.

Determinism: corruption noise comes from a stream keyed by
(seed XOR user_id, stage), so results do not depend on which chains
are skipped; every reverse step takes its mean; rows are processed in
fixed 128-row chunks so BLAS sees the same shapes on every run.  While
a pair's chains run, NumPy's OpenBLAS is held to one thread
(blas.one_blas_thread), since it rounds some products differently at
other thread counts: inference bytes do not depend on
OPENBLAS_NUM_THREADS.
WORKERS threads run the chunks, each chunk wholly on one worker, and
blocks and errors come back in chunk order, so a chunk's bytes do not
depend on the worker count either.  A chain's arithmetic runs with
NumPy's overflow warnings off, since every block is checked for
finiteness before it is reduced.

Memory: each chunk is one task on a worker, which builds the chunk's
condition rows (both condition graphs are row-local), runs its chains,
checks them and reduces them at once: the social phase into
re-binarized graph rows, and infer and validation into ranked lists.
Only a sweep's item pair is whole: item_phase allocates it once, and
each chunk's blocks are that chunk's rows of it, filled in place, so no
block is copied.  At most WORKERS chunks are alive at a time: 256 rows
of each chain at CHUNK 128.  The calling thread only allocates each
chunk's blocks (or the whole pair), which hold its noise until the
output head overwrites it, since glibc keeps what a thread frees in
that thread's arena; a worker allocates hidden-width arrays, sparse
rows and reduce's scratch, such as a ranking block.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .blas import one_blas_thread
from .corpus import InteractionMatrix, SocialMatrix, binary_rows, canonical_rows, copurchase
from .corpus import long_tail, pruned, social_preference
from .denoiser import DenoiserParams, corrupt_rows, timestep_embedding
from .denoiser import predict_x0  # noqa: F401  (bench/spans.py wraps it here)
from .errors import ConfigError, NumericError
from .evaluation import topk_lists
from .schedule import NoiseSchedule, model_mean
from .schedule import q_sample  # noqa: F401  (bench/spans.py wraps it here)
from .store import Checkpoint

# Independent noise streams per user; values are arbitrary but frozen,
# since checkpoints and reports produced under them must replay exactly.
# A phase's chain over its condition rows runs at the phase's stage + 1.
STAGE_SOCIAL = 0
STAGE_SOCIAL_COND = 1
STAGE_ITEM = 2
STAGE_ITEM_COND = 3
STAGE_VALID = 4
STAGE_NAMES = ("social", "social-condition", "item", "item-condition", "validation")

CHUNK = 128
WORKERS = 2


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
    social_keep: int | None = None

    def __post_init__(self):
        for name in ("eta", "gamma", "w_s", "w_r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name, v in (("delta", self.delta), ("lambda", self.lam)):
            if v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        if self.T_inf is not None and self.T_inf < 1:
            raise ConfigError(f"T_inf must be >= 1, got {self.T_inf}")
        if self.social_keep is not None and self.social_keep < 0:
            raise ConfigError(f"social_keep must be >= 0, got {self.social_keep}")


def resolve_T_inf(T_inf: int | None, sched: NoiseSchedule) -> int:
    if T_inf is None:
        return sched.T
    if T_inf > sched.T:
        raise ConfigError(f"guidance.T_inf={T_inf} exceeds schedule length {sched.T}")
    return T_inf


def _user_eps(seed: int, stage: int, users, out: np.ndarray) -> None:
    """Corruption noise for a block of users written into `out`, one
    stream per (user, stage)."""
    for row, u in zip(out, users):
        np.random.default_rng([seed ^ int(u), stage]).standard_normal(out=row)


def _chain_rows(
    params: DenoiserParams, sched: NoiseSchedule, rows, T_inf: int | None, cond, mix: float,
    paired: bool, seed: int, stage: int, reduce, out_a=None, out_b=None,
) -> list:
    """The chains of a pair over the same users, one CHUNK-row block at a
    time: the list of reduce(span, a, b) over the blocks, in chunk order.

    Chain A runs reverse chains over clean `rows` (corrupted here to
    T_inf, the whole schedule when None), each step's mean mixed with
    weight `mix` toward the mean at the clean condition row; cond(span)
    builds a block's condition rows (CSR) when a chain reads them.  Chain
    B runs over those rows, unguided, at stage + 1, only when `paired`;
    b is None otherwise.  Each block's noise is corrupted in place
    (corrupt_rows), and steps run on z = x @ W0x (module docstring); the
    output head is applied once, at t = 1, into the block that held the
    noise.  A worker runs each chunk whole (module docstring) in blocks
    the calling thread allocates, or, given whole arrays out_a and
    out_b, in its rows of them, so they fill in place.  The BLAS hold
    and the workers last only for this call.  The first error in chunk
    order is raised: what cond or reduce raised, or a NumericError
    naming the stage and the first user of a block whose output is not
    finite.
    """
    T_inf = resolve_T_inf(T_inf, sched)
    ab = sched.alpha_bar[T_inf - 1]
    n_rows, width = rows.shape
    if width != params.in_dim:
        raise ConfigError(f"row width {width} != model width {params.in_dim}")
    guided = cond is not None and mix > 0.0
    w0x = params.weights[0][:width]
    deep = list(zip(params.weights[1:-1], params.biases[1:-1]))
    w_out, b_out = params.weights[-1], params.biases[-1]

    def last(z, e, out):
        """The last hidden activation of rows projected to z, e being the
        step's embedding row; written into out with one hidden layer."""
        np.tanh(np.add(z, e, out=out), out=out)
        for w, b in deep:
            out = np.tanh(out @ w + b)
        return out

    def hidden(z, zc, e, h, hc):
        """last() of z, blended by mix with zc's when guided."""
        h = last(z, e, h)
        if zc is not None:
            h *= 1.0 - mix
            hc = last(zc, e, hc)
            hc *= mix
            h += hc
        return h

    def chain(x0, block, span, zc, stage, h, hc, x0_hat):
        _user_eps(seed, stage, range(span.start, span.stop), block)
        z = corrupt_rows(x0, ab, block, out=block) @ w0x
        zc_mix = None if zc is None else mix * zc
        for t in range(T_inf, 1, -1):
            np.matmul(hidden(z, zc, emb[t - 1], h, hc), head_z, out=x0_hat)
            x0_hat += bias_z
            if zc is not None:
                z *= 1.0 - mix
                z += zc_mix
            z = model_mean(z, x0_hat, t, sched)
        # c_xt(1) = 0 and c_x0(1) = 1: the last mean is the mixed prediction.
        np.matmul(hidden(z, zc, emb[0], h, hc), w_out, out=block)
        block += b_out

    def run(span, a, b):
        """A chunk's task: its condition rows, its chains into its blocks,
        their check (chain A's block, then chain B's), and reduce."""
        c = canonical_rows(cond(span)) if guided or paired else None
        if c is not None and c.shape != a.shape:
            raise ConfigError(f"condition rows {c.shape} != rows {a.shape}")
        h, hc, x0_hat = np.empty((3, len(a), w0x.shape[1]))
        # the check below refuses what overflows here, so NumPy's
        # warnings would only repeat that refusal
        with np.errstate(over="ignore", invalid="ignore"):
            zc = c @ w0x if guided else None
            chain(canonical_rows(rows[span]), a, span, zc, stage, h, hc, x0_hat)
            if paired:
                chain(c, b, span, None, stage + 1, h, hc, x0_hat)
        for block, block_stage in ((a, stage), (b, stage + 1)):
            if block is None:
                continue
            ok = np.isfinite(block).all(axis=1)
            if not ok.all():
                user = span.start + int(np.argmin(ok))
                raise NumericError(
                    f"non-finite {STAGE_NAMES[block_stage]} chain output, first at user {user}"
                )
        return reduce(span, a, b)

    def blocks(span):
        shape = (span.stop - span.start, width)
        a = np.empty(shape) if out_a is None else out_a[span]
        return a, (np.empty(shape) if out_b is None else out_b[span]) if paired else None

    # No name here keeps a block once its task is submitted.
    with one_blas_thread(), ThreadPoolExecutor(WORKERS) as pool:
        with np.errstate(over="ignore", invalid="ignore"):  # as in run
            head_z = w_out @ w0x
            bias_z = b_out @ w0x
            # the timestep embedding enters through W0's rows past W0x
            w0t, temb, b0 = params.weights[0][width:], params.time_embed_dim, params.biases[0]
            emb = [timestep_embedding(t, temb) @ w0t + b0 for t in range(1, T_inf + 1)]
        spans = (slice(i, min(i + CHUNK, n_rows)) for i in range(0, n_rows, CHUNK))
        pending, reduced = deque(), []
        while True:
            for span in spans:
                pending.append(pool.submit(run, span, *blocks(span)))
                if len(pending) == WORKERS:
                    break
            if not pending:
                return reduced
            reduced.append(pending.popleft().result())


def unconditional_scores(
    params: DenoiserParams, sched: NoiseSchedule, rows, T_inf: int | None, seed: int, stage: int,
    reduce,
) -> list:
    """Plain diffusion denoising of every row, the no-guidance baseline:
    the list of reduce(span, a, None) over its blocks, as in _chain_rows."""
    return _chain_rows(params, sched, rows, T_inf, None, 0.0, False, seed, stage, reduce)


def binarize_social(
    S: SocialMatrix, s_bar: np.ndarray, keep: int | None, start: int = 0,
    other: np.ndarray | None = None, w: float = 0.0,
) -> SocialMatrix:
    """Turn denoised score rows back into 0/1 graph rows.

    Row j of s_bar holds the scores of user start + j, blended with
    other's row j by w as topk_lists blends, and the result holds those
    users' rows of the graph: the whole score matrix gives the whole
    graph, and row blocks give blocks that stack to it.  Each user keeps
    its `keep` highest-scoring other users (its degree in S when keep is
    None), at most n - 1; ties break toward the lower user id, as in
    every ranking (evaluation.topk_lists).
    """
    if keep is not None and keep < 0:
        raise ConfigError(f"keep must be >= 0, got {keep}")
    n, rows = S.n_users, len(s_bar)
    if keep is None:
        degrees = np.diff(S.matrix.indptr[start : start + rows + 1])
    else:
        degrees = np.full(rows, keep)
    keep_u = np.minimum(degrees, max(n - 1, 0))
    itself = sp.eye(rows, n, k=start, format="csr")
    ids = topk_lists(s_bar, int(keep_u.max(initial=0)), itself, other, w).items
    # Ids past a row's own keep become n, so they sort behind the kept ones.
    kept = np.arange(ids.shape[1]) < keep_u[:, None]
    neigh = np.sort(np.where(kept, ids, n), axis=1)[kept]
    return SocialMatrix(binary_rows(neigh, keep_u, n))


def social_phase(
    ckpt: Checkpoint, S: SocialMatrix, cond, cfg: GuidanceConfig, seed: int
) -> SocialMatrix:
    """The denoised graph: each block of the social chains A (over S,
    guided toward the condition rows cond(span) by eta) and B (over
    those rows) is blended by w_s and re-binarized as it is made, so no
    dense n x n score matrix is held."""

    def rebinarize(span, a, b):
        return binarize_social(S, a, cfg.social_keep, span.start, other=b, w=cfg.w_s).matrix

    blocks = _chain_rows(
        ckpt.params, ckpt.sched, S.matrix, cfg.T_inf, cond, cfg.eta, cfg.w_s > 0.0, seed,
        STAGE_SOCIAL, rebinarize,
    )
    return SocialMatrix(sp.vstack(blocks, format="csr"))


def item_phase(
    ckpt: Checkpoint, R: InteractionMatrix, cond, cfg: GuidanceConfig, seed: int, reduce=None
):
    """Both item-side chains, unmixed: A over R guided toward the
    condition rows cond(span) by gamma, B over those rows when w_r > 0.

    Without `reduce`, the whole pair (b None when w_r = 0), so callers
    can blend any w_r; the pair is allocated here, and each chunk's
    chains fill their rows of it in place.  Otherwise each block goes
    through reduce(span, a, b) as it is made, and the list of what it
    returns comes back.
    """
    chains = partial(
        _chain_rows, ckpt.params, ckpt.sched, R.matrix, cfg.T_inf, cond, cfg.gamma,
        cfg.w_r > 0.0, seed, STAGE_ITEM,
    )
    if reduce is not None:
        return chains(reduce)
    pair = np.empty(R.matrix.shape), np.empty(R.matrix.shape) if cfg.w_r > 0.0 else None
    chains(lambda span, a, b: None, *pair)  # each chunk fills its rows of the pair
    return pair


def build_social_condition(
    S: SocialMatrix, R_l: InteractionMatrix, delta: float, rows: slice
) -> sp.csr_matrix:
    """Rows `rows` of the condition graph S' = delta * copurchase(R_l) + S:
    co-interactions over long-tail items (corpus.long_tail)."""
    if delta == 0.0:
        return S.matrix[rows]
    return pruned(delta * copurchase(R_l, rows) + S.matrix[rows])


def build_item_condition(
    S_bar: SocialMatrix | None, R: InteractionMatrix, lam: float, rows: slice
) -> sp.csr_matrix:
    """Rows `rows` of the condition R' = lam * inv + R, inv being the
    reciprocal of the neighbor counts social_preference(S_bar, R) on
    their nonzeros: weights that favor items few neighbors touched."""
    if lam == 0.0:
        return R.matrix[rows]
    inv = social_preference(S_bar, R, rows)
    inv.data = 1.0 / inv.data
    return pruned(lam * inv + R.matrix[rows])


def check_chain_inputs(
    ckpt_social: Checkpoint | None, ckpt_item: Checkpoint, S: SocialMatrix | None,
    R: InteractionMatrix, cfg: GuidanceConfig,
) -> None:
    """Refuses joint_chains' inputs before any chain runs: user counts that
    differ, lam > 0 without the social side, and, for each model `cfg`
    runs (the social one first, as the chains run), a T_inf beyond its
    schedule or a width other than its rows' (as _chain_rows words it)."""
    if S is not None and S.n_users != R.n_users:
        raise ConfigError(f"social users {S.n_users} != interaction users {R.n_users}")
    runs = [(ckpt_item, R.n_items)]
    if cfg.lam > 0:
        if ckpt_social is None or S is None:
            raise ConfigError(
                "lam > 0 builds the item condition from the denoised social "
                "graph; a social model checkpoint and a social matrix are required"
            )
        runs.insert(0, (ckpt_social, S.n_users))
    for ckpt, width in runs:
        resolve_T_inf(cfg.T_inf, ckpt.sched)
        if width != ckpt.params.in_dim:
            raise ConfigError(f"row width {width} != model width {ckpt.params.in_dim}")


def joint_chains(
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    R: InteractionMatrix,
    hot: np.ndarray,
    cfg: GuidanceConfig,
    seed: int,
    reduce=None,
):
    """Everything up to the final w_r blend: runs the social side, and
    returns the two item chains unmixed, or each of their blocks reduced
    (item_phase).  Both condition graphs are built a block at a time.

    Lets a sweep over w_r reuse one pair of chains instead of rerunning
    the whole pipeline per value: the pair (a, b) blended as
    (1 - w_r) * a + w_r * b (a alone when b is None or w_r is 0) is the
    pipeline's scores, bitwise unconditional_scores on R when every
    coefficient is zero.  The social side may be None when lam = 0.
    """
    check_chain_inputs(ckpt_social, ckpt_item, S, R, cfg)
    S_bar = None
    if cfg.lam > 0:
        s_cond = partial(build_social_condition, S, long_tail(R, hot), cfg.delta)
        S_bar = social_phase(ckpt_social, S, s_cond, cfg, seed)
    # lam = 0 zeroes the social term of the item condition, so the
    # denoised graph cannot influence the output; the social chains are
    # skipped entirely (bitwise-identical result, large time save).
    r_cond = partial(build_item_condition, S_bar, R, cfg.lam)
    return item_phase(ckpt_item, R, r_cond, cfg, seed, reduce)
