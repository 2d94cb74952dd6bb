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
(seed XOR user_id, stage), so results do not depend on which chains
are skipped; every reverse step takes its mean; rows are processed in
fixed 256-row chunks so BLAS sees the same shapes on every run.  While
a pair's chains run, NumPy's OpenBLAS is held to one thread
(blas.one_blas_thread), since it rounds some products differently at
other thread counts: inference bytes do not depend on
OPENBLAS_NUM_THREADS.
Up to WORKERS threads run the chunks, each chunk wholly on one worker,
and blocks come back in chunk order, so a chunk's bytes do not depend on
the worker count either.  Where the hold cannot be taken, one worker
runs the chunks, one at a time.

Memory: _chain_rows yields a pair's chains chunk by chunk, building
each chunk's condition rows as it goes, since both condition graphs are
row-local; each phase reduces a chunk as soon as it is made: the social
phase into re-binarized graph rows, and infer and validation into
ranked lists.  Only a sweep's item pair is whole.  At most WORKERS
chunks are alive at a time, the one being reduced included.  The
calling thread allocates each chunk's blocks, which hold its noise
until the output head overwrites it, and checks them; a worker allocates
no chunk-sized array, since glibc keeps what a thread frees in that
thread's arena.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import starmap

import numpy as np
import scipy.sparse as sp

from .blas import one_blas_thread
from .corpus import InteractionMatrix, SocialMatrix, binary_rows, canonical_rows, copurchase
from .corpus import long_tail, pruned, social_preference
from .denoiser import DenoiserParams, corrupt_rows, last_hidden
from .denoiser import predict_x0  # noqa: F401  (bench/spans.py wraps it here)
from .errors import ConfigError, NumericError
from .evaluation import top_k_rows
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

CHUNK = 256
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


def resolve_T_inf(cfg: GuidanceConfig, sched: NoiseSchedule) -> int:
    if cfg.T_inf is None:
        return sched.T
    if cfg.T_inf > sched.T:
        raise ConfigError(f"guidance.T_inf={cfg.T_inf} exceeds schedule length {sched.T}")
    return cfg.T_inf


def _user_eps(seed: int, stage: int, users, out: np.ndarray) -> None:
    """Corruption noise for a block of users written into `out`, one
    stream per (user, stage)."""
    for row, u in zip(out, users):
        np.random.default_rng([seed ^ int(u), stage]).standard_normal(out=row)


def _chain_rows(
    params: DenoiserParams, sched: NoiseSchedule, rows, cond, mix: float, cfg: GuidanceConfig,
    seed: int, stage: int, w: float = 0.0,
):
    """The chains of a pair over the same users, one CHUNK-row block at a
    time: yields (span, a, b) for each block in order.

    Chain A runs reverse chains over clean `rows` (corrupted here to
    T_inf), each step's mean mixed with weight `mix` toward the mean at
    the clean condition row; cond(span) builds a block's condition rows
    (CSR) when a chain reads them.  Chain B runs over those rows, unguided,
    at stage + 1, only when its blend weight w is > 0; b is None otherwise.
    Each block's noise is corrupted in place (corrupt_rows), and steps
    run on z = x @ W0x (module docstring); the output head is applied
    once, at t = 1, into the block that held the noise.  The calling
    thread builds each chunk's rows and blocks, and the workers fill
    them (module docstring).  Raises NumericError naming the stage and
    the first user of the first block whose output is not finite.
    """
    T_inf = resolve_T_inf(cfg, sched)
    ab = sched.alpha_bar[T_inf - 1]
    n_rows, width = rows.shape
    if width != params.in_dim:
        raise ConfigError(f"row width {width} != model width {params.in_dim}")
    guided = cond is not None and mix > 0.0
    paired = cond is not None and w > 0.0
    w0x = params.weights[0][:width]
    w_out, b_out = params.weights[-1], params.biases[-1]

    def hidden(z, zc, t):
        h = last_hidden(params, z, t)
        return h if zc is None else (1.0 - mix) * h + mix * last_hidden(params, zc, t)

    def chain(x0, block, span, zc, stage):
        _user_eps(seed, stage, range(span.start, span.stop), block)
        z = corrupt_rows(x0, ab, block, out=block) @ w0x
        for t in range(T_inf, 1, -1):
            z_mix = z if zc is None else (1.0 - mix) * z + mix * zc
            z = model_mean(z_mix, hidden(z, zc, t) @ head_z + bias_z, t, sched)
        # c_xt(1) = 0 and c_x0(1) = 1: the last mean is the mixed prediction.
        np.matmul(hidden(z, zc, 1), w_out, out=block)
        block += b_out

    def pair(span, x0, c, a, b):
        chain(x0, a, span, c @ w0x if guided else None, stage)
        if paired:
            chain(c, b, span, None, stage + 1)
        return span, a, b

    def finite(span, a, b):
        """The chunk as a worker made it, once chain A's block, then chain
        B's, is checked on this thread."""
        for block, block_stage in ((a, stage), (b, stage + 1)):
            if block is None:
                continue
            ok = np.isfinite(block).all(axis=1)
            if not ok.all():
                user = span.start + int(np.argmin(ok))
                raise NumericError(
                    f"non-finite {STAGE_NAMES[block_stage]} chain output, first at user {user}"
                )
        return span, a, b

    def submit(pool, span):
        """Builds a chunk's rows and blocks and hands them to a worker; an
        error here is raised by the future's result(), in chunk order."""
        try:
            c = cond(span) if guided or paired else None
            shape = (span.stop - span.start, width)
            if c is not None and c.shape != shape:
                raise ConfigError(f"condition rows {c.shape} != rows {shape}")
            c = None if c is None else canonical_rows(c)
            a, b = np.empty(shape), np.empty(shape) if paired else None
            return pool.submit(pair, span, canonical_rows(rows[span]), c, a, b)
        except Exception as err:
            failed = Future()
            failed.set_exception(err)
            return failed

    # The hold starts before the first product and ends, pool drained,
    # when the chains finish, raise or are closed.  No name here or in
    # the callers' loops keeps a block once it is passed on.
    with one_blas_thread() as held:
        workers = WORKERS if held else 1
        pool = ThreadPoolExecutor(workers)
        try:
            head_z = w_out @ w0x
            bias_z = b_out @ w0x
            spans = (slice(i, min(i + CHUNK, n_rows)) for i in range(0, n_rows, CHUNK))
            pending = deque()
            while True:
                for span in spans:
                    pending.append(submit(pool, span))
                    if len(pending) == workers:
                        break
                if not pending:
                    return
                yield finite(*pending.popleft().result())
        finally:
            pool.shutdown(cancel_futures=True)


def _gather(chunks, shape=None, paired: bool = False, reduce=None):
    """The list of reduce(span, a, b) over _chain_rows' blocks or, without
    `reduce`, the whole chains A and B (None unless `paired`).  The chains
    are closed however this ends, so their hold on BLAS ends with it."""
    with closing(chunks):
        if reduce is not None:
            return list(starmap(reduce, chunks))
        out_a = np.empty(shape)
        out_b = np.empty(shape) if paired else None
        for span, a, b in chunks:
            out_a[span] = a
            if paired:
                out_b[span] = b
            del a, b
        return out_a, out_b


def unconditional_scores(
    params: DenoiserParams, sched: NoiseSchedule, rows, T_inf: int | None, seed: int, stage: int,
    reduce,
) -> list:
    """Plain diffusion denoising of every row, the no-guidance baseline:
    the list of reduce(span, a, None) over its blocks, as in item_phase."""
    chunks = _chain_rows(params, sched, rows, None, 0.0, GuidanceConfig(T_inf=T_inf), seed, stage)
    return _gather(chunks, reduce=reduce)


def binarize_social(
    S: SocialMatrix, s_bar: np.ndarray, keep: int | None, start: int = 0,
    other: np.ndarray | None = None, w: float = 0.0,
) -> SocialMatrix:
    """Turn denoised score rows back into 0/1 graph rows.

    Row j of s_bar holds the scores of user start + j, blended with
    other's row j by w as top_k_rows blends, and the result holds those
    users' rows of the graph: the whole score matrix gives the whole
    graph, and row blocks give blocks that stack to it.  Each user keeps
    its `keep` highest-scoring other users (its degree in S when keep is
    None), at most n - 1; ties break toward the lower user id, as in
    every ranking (evaluation.top_k_rows).
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
    ids, _ = top_k_rows(s_bar, int(keep_u.max(initial=0)), itself, other, w)
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
    chunks = _chain_rows(
        ckpt.params, ckpt.sched, S.matrix, cond, cfg.eta, cfg, seed, STAGE_SOCIAL, cfg.w_s
    )

    def rebinarize(span, a, b):
        return binarize_social(S, a, cfg.social_keep, span.start, other=b, w=cfg.w_s).matrix

    return SocialMatrix(sp.vstack(_gather(chunks, reduce=rebinarize), format="csr"))


def item_phase(
    ckpt: Checkpoint, R: InteractionMatrix, cond, cfg: GuidanceConfig, seed: int, reduce=None
):
    """Both item-side chains, unmixed: A over R guided toward the
    condition rows cond(span) by gamma, B over those rows when w_r > 0.

    Without `reduce`, the whole pair (b None when w_r = 0), so callers
    can blend any w_r.  Otherwise each block goes through reduce(span,
    a, b) as it is made, and the list of what it returns comes back.
    """
    chunks = _chain_rows(
        ckpt.params, ckpt.sched, R.matrix, cond, cfg.gamma, cfg, seed, STAGE_ITEM, cfg.w_r
    )
    return _gather(chunks, R.matrix.shape, cfg.w_r > 0.0, reduce)


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
    if S is not None and S.n_users != R.n_users:
        raise ConfigError(f"social users {S.n_users} != interaction users {R.n_users}")
    S_bar = None
    if cfg.lam > 0:
        if ckpt_social is None or S is None:
            raise ConfigError(
                "lam > 0 builds the item condition from the denoised social "
                "graph; a social model checkpoint and a social matrix are required"
            )
        s_cond = partial(build_social_condition, S, long_tail(R, hot), cfg.delta)
        S_bar = social_phase(ckpt_social, S, s_cond, cfg, seed)
    # lam = 0 zeroes the social term of the item condition, so the
    # denoised graph cannot influence the output; the social chains are
    # skipped entirely (bitwise-identical result, large time save).
    r_cond = partial(build_item_condition, S_bar, R, cfg.lam)
    return item_phase(ckpt_item, R, r_cond, cfg, seed, reduce)
