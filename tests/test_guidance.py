"""Condition-guided reverse inference: chains, mixing, and the joint
pipeline, whose dense scores are blend(*joint_chains(...), w_r)."""

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

import cgsorec
from cgsorec import guidance, trainer
from cgsorec.blas import _openblas
from cgsorec.corpus import (
    InteractionMatrix,
    SocialMatrix,
    canonical_rows,
    copurchase,
    long_tail,
    partition_items,
    social_preference,
)
from cgsorec.denoiser import corrupt_rows, predict_x0
from cgsorec.errors import ConfigError, NumericError
from cgsorec.evaluation import ROW_BLOCK
from cgsorec.guidance import (
    CHUNK,
    GuidanceConfig,
    STAGE_ITEM,
    STAGE_ITEM_COND,
    STAGE_SOCIAL,
    STAGE_SOCIAL_COND,
    _chain_rows,
    binarize_social,
    build_item_condition,
    build_social_condition,
    item_phase,
    joint_chains,
    social_phase,
    unconditional_scores,
)
from cgsorec.pipeline import recall_validator
from cgsorec.schedule import make_schedule, model_mean, q_sample
from cgsorec.store import TrainConfig, save_checkpoint
from cgsorec.synth import lastfm_like, planted, write_dataset

from conftest import rand_binary_csr, untrained_checkpoint, whole_scores
from reference import blend, to_matrices

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cgsorec.__file__)))


class TestGuidanceConfig:
    def test_defaults_all_zero(self):
        cfg = GuidanceConfig()
        assert (cfg.eta, cfg.gamma, cfg.w_s, cfg.w_r, cfg.delta, cfg.lam) == (
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": -0.1}, {"eta": 1.1}, {"gamma": 2.0}, {"w_s": -1.0},
            {"w_r": 1.5}, {"delta": -0.1}, {"lam": -2.0}, {"T_inf": 0},
        ],
    )
    def test_ranges_enforced(self, kwargs):
        with pytest.raises(ConfigError):
            GuidanceConfig(**kwargs)


def rows_of(m):
    """A condition as _chain_rows reads it: each block's rows of the dense
    or sparse matrix `m`, as CSR (None stays None)."""
    return None if m is None else lambda span: sp.csr_matrix(m[span])


def whole_pair(params, sched, rows, cond, mix, cfg, seed, stage, w=0.0):
    """Chains A and B of _chain_rows' blocks under the condition matrix
    `cond`, whole (B None when w = 0)."""
    blocks = _chain_rows(params, sched, rows, cfg.T_inf, rows_of(cond), mix, w > 0, seed, stage,
                         reduce=lambda *block: block)
    a = np.vstack([a for _, a, _ in blocks])
    return a, np.vstack([b for _, _, b in blocks]) if w > 0 else None


def chain_a(params, sched, rows, cond, mix, cfg, seed, stage):
    return whole_pair(params, sched, rows, cond, mix, cfg, seed, stage)[0]


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.shape == want.shape


def reference_chain(params, sched, x, cond, mix, T_inf):
    """Item-space stepper: full-width denoiser passes, one step at a time."""
    for t in range(T_inf, 0, -1):
        mean = model_mean(x, predict_x0(params, x, t), t, sched)
        if cond is not None and mix > 0:
            cond_mean = model_mean(cond, predict_x0(params, cond, t), t, sched)
            mean = (1.0 - mix) * mean + mix * cond_mean
        x = mean
    return x


def corrupt(rows, T_inf, sched, seed, stage, start=0):
    """q_sample of clean rows with each user's own (seed ^ user, stage) noise."""
    eps = np.stack([
        np.random.default_rng([seed ^ (start + j), stage]).standard_normal(rows.shape[1])
        for j in range(rows.shape[0])
    ])
    return q_sample(rows, T_inf, eps, sched)


def reference_rows(ckpt, rows, cond, mix, cfg, seed, stage):
    """Chain A of _chain_rows, stepped in item space with the same noise."""
    rows = rows.toarray() if sp.issparse(rows) else rows
    cond = cond.toarray() if sp.issparse(cond) else cond
    T_inf = cfg.T_inf or ckpt.sched.T
    blocks = []
    for start in range(0, rows.shape[0], CHUNK):
        stop = start + CHUNK
        x = corrupt(rows[start:stop], T_inf, ckpt.sched, seed, stage, start)
        c = None if cond is None else cond[start:stop]
        blocks.append(reference_chain(ckpt.params, ckpt.sched, x, c, mix, T_inf))
    return np.vstack(blocks)


class TestItemSpaceReference:
    """The hidden-space chain against the item-space stepper."""

    @pytest.mark.parametrize("dense", [False, True])  # rows given as CSR or as an array
    @pytest.mark.parametrize("T_inf", [None, 2])
    @pytest.mark.parametrize("mix", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("hidden", [(8,), (8, 6)])
    def test_matches_reference(self, rng, hidden, mix, T_inf, dense):
        ckpt = untrained_checkpoint(7, T=4, seed=8, hidden=hidden)
        for b in ckpt.params.biases:  # initialised to zero; exercise them
            b[:] = 0.1 * rng.standard_normal(b.shape)
        rows = rand_binary_csr(rng, CHUNK + 40, 7, 0.3)
        cond = rows + sp.csr_matrix(2.0 * (rng.random(rows.shape) < 0.2))
        if dense:
            rows, cond = rows.toarray(), cond.toarray()
        cfg = GuidanceConfig(T_inf=T_inf)
        got = chain_a(ckpt.params, ckpt.sched, rows, cond, mix, cfg, 5, STAGE_ITEM)
        want = reference_rows(ckpt, rows, cond, mix, cfg, 5, STAGE_ITEM)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_non_finite_names_stage_and_user(self, rng):
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((CHUNK + 40, 7))
        rows[CHUNK + 3, 2] = np.nan
        with pytest.raises(NumericError, match=f"item chain .* user {CHUNK + 3}$"):
            whole_scores(ckpt.params, ckpt.sched, rows, stage=STAGE_ITEM)

    def test_pair_interleaves_by_block(self, rng):
        # a pair's chain B runs on each block before chain A moves to the
        # next, so a bad condition row in the first block is named before
        # a bad row of chain A in the second
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((CHUNK + 40, 7))
        cond = rows.copy()
        rows[CHUNK + 3, 2] = np.nan
        cond[5, 1] = np.nan
        cfg = GuidanceConfig()
        with pytest.raises(NumericError, match="item-condition chain .* user 5$"):
            whole_pair(ckpt.params, ckpt.sched, rows, cond, 0.0, cfg, 1, STAGE_ITEM, w=0.5)
        with pytest.raises(NumericError, match=f"item chain .* user {CHUNK + 3}$"):
            whole_pair(ckpt.params, ckpt.sched, rows, cond, 0.0, cfg, 1, STAGE_ITEM)

    def test_reduced_blocks_stack_to_the_whole_scores(self, rng):
        # unconditional_scores hands reduce each block as it is made, with
        # no chain B, and returns what reduce returned; the blocks stack to
        # an unguided chain A
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rand_binary_csr(rng, CHUNK + 40, 7, 0.3)
        blocks = unconditional_scores(
            ckpt.params, ckpt.sched, rows, None, 4, STAGE_ITEM, lambda span, a, b: (span, a, b)
        )
        spans = [(span.start, span.stop) for span, _, _ in blocks]
        assert spans == [(0, CHUNK), (CHUNK, CHUNK + 40)]
        assert all(b is None for _, _, b in blocks)
        whole = chain_a(ckpt.params, ckpt.sched, rows, None, 0.0, GuidanceConfig(), 4, STAGE_ITEM)
        assert np.vstack([a for _, a, _ in blocks]).tobytes() == whole.tobytes()


class TestInPlaceCorruption:
    """corrupt_rows, the corruption of the chains and of the training
    step, is q_sample on the dense rows bit for bit."""

    sched = make_schedule(5, 1e-4, 0.02)

    def assert_bitwise(self, x, rng):
        dense = x.toarray() if sp.issparse(x) else x
        for t in (4, rng.integers(1, 6, size=len(dense))):
            eps = rng.standard_normal(dense.shape)
            want = q_sample(dense, t, eps, self.sched)
            ab = self.sched.alpha_bar[t - 1]
            ab = ab[:, None] if np.ndim(t) else ab
            buf = eps.copy()
            assert corrupt_rows(canonical_rows(x), ab, buf, out=buf) is buf
            assert buf.tobytes() == want.tobytes()
            # into a strided view, as the training step's embedded input;
            # eps itself is left as it was
            wide = np.zeros((len(dense), dense.shape[1] + 3))
            corrupt_rows(canonical_rows(x), ab, eps, out=wide[:, : dense.shape[1]])
            assert wide[:, : dense.shape[1]].tobytes() == want.tobytes()
            assert not wide[:, dense.shape[1] :].any()

    def test_dense_rows_with_non_finite_entries(self, rng):
        x = np.where(rng.random((CHUNK + 40, 9)) < 0.6, 0.0, rng.random((CHUNK + 40, 9)))
        x[3, 2], x[7, 0], x[7, 5], x[CHUNK + 1, 8] = np.nan, np.inf, -np.inf, -0.0
        self.assert_bitwise(x, rng)

    def test_non_canonical_csr_rows(self, rng):
        # unsorted indices, repeated entries (summed, some to zero) and
        # explicit zeros; small integers sum exactly in any order
        n_rows, width = CHUNK + 40, 9
        sizes = rng.integers(0, 7, size=n_rows)
        indices = rng.integers(0, width, size=sizes.sum())
        data = rng.integers(-2, 3, size=sizes.sum()).astype(np.float64)
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        x = sp.csr_matrix((data, indices, indptr), shape=(n_rows, width))
        assert not x.has_canonical_format and (x.data == 0).any()
        self.assert_bitwise(x, rng)


class TestGuidedMean:
    """The per-step mix toward the mean at the clean condition."""

    def setup_method(self):
        self.ckpt = untrained_checkpoint(6, T=4, seed=2)
        self.sched = self.ckpt.sched

    def chain(self, rows, cond, mix, T_inf, seed=3):
        cfg = GuidanceConfig(T_inf=T_inf)
        return chain_a(
            self.ckpt.params, self.sched, rows, cond, mix, cfg, seed, STAGE_ITEM
        )

    def test_mix_zero_is_unconditional(self, rng):
        rows = rng.standard_normal((5, 6))
        cond = rng.standard_normal((5, 6))
        base = whole_scores(self.ckpt.params, self.sched, rows, T_inf=3, seed=3, stage=STAGE_ITEM)
        assert np.array_equal(self.chain(rows, cond, 0.0, 3), base)
        assert np.array_equal(self.chain(rows, None, 0.7, 3), base)

    def test_mix_one_is_condition_branch(self, rng):
        # every step, the last one included, takes the condition's mean,
        # so the output is the prediction at the clean condition
        rows = rng.standard_normal((5, 6))
        cond = rng.standard_normal((5, 6))
        want = predict_x0(self.ckpt.params, cond, 1)
        np.testing.assert_allclose(self.chain(rows, cond, 1.0, 3), want, rtol=1e-10)

    def test_affine_mix(self, rng):
        rows = rng.standard_normal((5, 6))
        cond = rng.standard_normal((5, 6))
        a = self.chain(rows, cond, 0.0, 1)
        b = self.chain(rows, cond, 1.0, 1)
        mid = self.chain(rows, cond, 0.5, 1)
        np.testing.assert_allclose(mid, 0.5 * a + 0.5 * b, rtol=1e-12)

    def test_shape_error(self, rng):
        with pytest.raises(ConfigError, match=r"condition rows \(5, 5\) != rows \(5, 6\)"):
            self.chain(rng.standard_normal((5, 6)), rng.standard_normal((5, 5)), 0.5, 2)


class TestReverseChain:
    def setup_method(self):
        self.ckpt = untrained_checkpoint(6, T=4, seed=3)
        self.sched = self.ckpt.sched

    def chain(self, rows, cond, mix, cfg, seed=4):
        return chain_a(
            self.ckpt.params, self.sched, rows, cond, mix, cfg, seed, STAGE_SOCIAL
        )

    def test_single_step_is_mixed_prediction(self, rng):
        rows = rng.standard_normal((5, 6))
        cond = rng.standard_normal((5, 6))
        out = self.chain(rows, cond, 0.3, GuidanceConfig(T_inf=1))
        # at t=1 the reverse mean IS the x0 prediction, so one step mixes
        # the two predictions directly
        x1 = corrupt(rows, 1, self.sched, 4, STAGE_SOCIAL)
        expected = 0.7 * predict_x0(self.ckpt.params, x1, 1) + 0.3 * predict_x0(
            self.ckpt.params, cond, 1
        )
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_mix_zero_equals_no_cond(self, rng):
        cfg = GuidanceConfig(T_inf=4)
        rows = rng.standard_normal((5, 6))
        cond = rng.standard_normal((5, 6))
        a = self.chain(rows, cond, 0.0, cfg)
        assert np.array_equal(a, self.chain(rows, None, 0.0, cfg))

    def test_two_step_composition_oracle(self, rng):
        rows = rng.standard_normal((5, 6))
        # compose two closed-form steps independently
        x2 = corrupt(rows, 2, self.sched, 4, STAGE_SOCIAL)
        x1 = model_mean(x2, predict_x0(self.ckpt.params, x2, 2), 2, self.sched)
        x0 = predict_x0(self.ckpt.params, x1, 1)
        out = self.chain(rows, None, 0.0, GuidanceConfig(T_inf=2))
        np.testing.assert_allclose(out, x0, rtol=1e-10)


class TestSingleRowBlends:
    """social_phase / item_phase blends against the item-space stepper."""

    def setup_method(self):
        self.ckpt = untrained_checkpoint(5, T=3, seed=4, tag="CSD")

    def graphs(self, rng):
        S = SocialMatrix(rand_binary_csr(rng, 5, 5, 0.4))
        S_prime = SocialMatrix(S.matrix + sp.csr_matrix(0.5 * np.ones((5, 5))))
        return S, S_prime

    def scores(self, S, S_prime, cfg):
        """The blended social scores social_phase re-binarizes, whole;
        social_phase's graph is checked to be theirs, re-binarized."""
        pair = whole_pair(
            self.ckpt.params, self.ckpt.sched, S.matrix, S_prime.matrix, cfg.eta, cfg, 9,
            STAGE_SOCIAL, cfg.w_s,
        )
        s_bar = blend(*pair, cfg.w_s)
        got = social_phase(self.ckpt, S, rows_of(S_prime.matrix), cfg, seed=9)
        assert_same_csr(got.matrix, binarize_social(S, s_bar, cfg.social_keep).matrix)
        return s_bar

    def test_all_zero_reduces_to_unconditional(self, rng):
        S, S_prime = self.graphs(rng)
        got = self.scores(S, S_prime, GuidanceConfig())
        expected = whole_scores(
            self.ckpt.params, self.ckpt.sched, S.matrix, seed=9, stage=STAGE_SOCIAL
        )
        assert np.array_equal(got, expected)

    def test_ws_one_returns_chain_b(self, rng):
        S, S_prime = self.graphs(rng)
        cfg = GuidanceConfig(w_s=1.0, eta=0.2)
        got = self.scores(S, S_prime, cfg)
        out_b = reference_rows(self.ckpt, S_prime.matrix, None, 0.0, cfg, 9, STAGE_SOCIAL_COND)
        np.testing.assert_allclose(got, out_b, rtol=1e-10)

    def test_ws_linear_mix(self, rng):
        S, S_prime = self.graphs(rng)
        cfg = GuidanceConfig(w_s=0.4, eta=0.2)
        got = self.scores(S, S_prime, cfg)
        out_a = reference_rows(self.ckpt, S.matrix, S_prime.matrix, 0.2, cfg, 9, STAGE_SOCIAL)
        out_b = reference_rows(self.ckpt, S_prime.matrix, None, 0.0, cfg, 9, STAGE_SOCIAL_COND)
        np.testing.assert_allclose(got, 0.6 * out_a + 0.4 * out_b, rtol=1e-10)

    def test_recommend_mirrors_with_wr(self, rng):
        ckpt = untrained_checkpoint(7, T=3, seed=5)
        R = InteractionMatrix(rand_binary_csr(rng, 6, 7, 0.3))
        R_prime = InteractionMatrix(R.matrix * 2.0)
        cfg = GuidanceConfig(w_r=0.5, gamma=0.3)
        out_a, out_b = item_phase(ckpt, R, rows_of(R_prime.matrix), cfg, seed=4)
        want_a = reference_rows(ckpt, R.matrix, R_prime.matrix, 0.3, cfg, 4, STAGE_ITEM)
        want_b = reference_rows(ckpt, R_prime.matrix, None, 0.0, cfg, 4, STAGE_ITEM_COND)
        np.testing.assert_allclose(out_a, want_a, rtol=1e-10)
        np.testing.assert_allclose(out_b, want_b, rtol=1e-10)

    def test_recommend_wr_zero_skips_chain_b(self, rng):
        ckpt = untrained_checkpoint(7, T=3, seed=5)
        R = InteractionMatrix(rand_binary_csr(rng, 6, 7, 0.3))
        out_a, out_b = item_phase(ckpt, R, rows_of(R.matrix), GuidanceConfig(), seed=4)
        assert out_b is None
        expected = whole_scores(ckpt.params, ckpt.sched, R.matrix, seed=4, stage=STAGE_ITEM)
        assert np.array_equal(out_a, expected)

    def test_shape_mismatch(self, rng):
        # rows narrower than the model are rejected, not silently projected
        with pytest.raises(ConfigError, match="row width 4 != model width 5"):
            whole_scores(self.ckpt.params, self.ckpt.sched, rng.standard_normal((3, 4)))


class TestStreamedSocialGraph:
    """social_phase re-binarizes each block as it is made; over several
    blocks, the last one partial, its graph is the whole blended score
    matrix re-binarized."""

    @pytest.mark.parametrize("keep", [None, 3])
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(eta=0.2, w_s=0.5, delta=1.0),  # guided
            dict(),  # unguided
            dict(eta=0.2, delta=1.0),  # w_s = 0: no chain B
            dict(w_s=0.5, delta=1.0),  # eta = 0: chain A unguided
        ],
    )
    def test_blocks_stack_to_the_whole_graph(self, rng, knobs, keep):
        n = CHUNK + 40
        S = rand_binary_csr(rng, n, n, 0.02)
        S.setdiag(0)
        S.eliminate_zeros()
        S = SocialMatrix(S.maximum(S.T).tocsr())
        R = InteractionMatrix(rand_binary_csr(rng, n, 20, 0.2))
        ckpt = untrained_checkpoint(n, T=3, seed=7, tag="CSD")
        cfg = GuidanceConfig(lam=1.0, social_keep=keep, **knobs)
        cond = partial(build_social_condition, S, long_tail(R, partition_items(R, 0.2)), cfg.delta)
        pair = whole_pair(
            ckpt.params, ckpt.sched, S.matrix, cond(slice(None)), cfg.eta, cfg, 3,
            STAGE_SOCIAL, cfg.w_s,
        )
        want = binarize_social(S, blend(*pair, cfg.w_s), keep)
        assert_same_csr(social_phase(ckpt, S, cond, cfg, seed=3).matrix, want.matrix)


def loop_binarize(S, s_bar, keep):
    """Reference re-binarization: one lexsort per user, the old CSR build."""
    n = S.n_users
    degrees = np.diff(S.matrix.indptr)
    indices, indptr = [], np.zeros(n + 1, dtype=np.int64)
    for u in range(n):
        k = int(degrees[u]) if keep is None else keep
        row = np.asarray(s_bar[u], dtype=np.float64).copy()
        row[u] = -np.inf
        order = np.lexsort((np.arange(n), -row))
        neigh = np.sort(order[: min(k, n - 1)]) if k else np.empty(0, dtype=np.int64)
        indices.append(neigh)
        indptr[u + 1] = indptr[u] + len(neigh)
    idx = np.concatenate(indices) if indices else np.empty(0, dtype=np.int64)
    return sp.csr_matrix((np.ones(len(idx)), idx, indptr), shape=(n, n))


def row_graph(row, u):
    """A graph on len(row) users, and score rows where user u scores `row`."""
    n = len(row)
    s_bar = np.zeros((n, n))
    s_bar[u] = row
    return SocialMatrix(sp.csr_matrix((n, n))), s_bar


def neighbors(S_bar, u):
    m = S_bar.matrix
    return m.indices[m.indptr[u] : m.indptr[u + 1]]


class TestBinarizeSocial:
    def test_keep_zero_empty(self):
        S, s_bar = row_graph([0.5, 0.1, 0.9], 0)
        out = binarize_social(S, s_bar, 0)
        assert out.matrix.shape == (3, 3) and out.matrix.nnz == 0

    def test_keep_all_others(self):
        S, s_bar = row_graph([0.5, 0.1, 0.9, 0.2], 1)
        assert np.array_equal(neighbors(binarize_social(S, s_bar, 3), 1), [0, 2, 3])

    def test_tie_break_by_id(self):
        S, s_bar = row_graph([0.9, 0.1, 0.9], 1)
        assert np.array_equal(neighbors(binarize_social(S, s_bar, 1), 1), [0])

    def test_self_excluded_even_at_max(self):
        S, s_bar = row_graph([0.1, 99.0, 0.2], 1)
        assert np.array_equal(neighbors(binarize_social(S, s_bar, 3), 1), [0, 2])

    def test_negative_keep_rejected(self):
        S, s_bar = row_graph([0.0, 0.0, 0.0], 0)
        with pytest.raises(ConfigError):
            binarize_social(S, s_bar, -1)

    def test_degree_preservation_property(self, rng):
        S = rand_binary_csr(rng, 12, 12, 0.25)
        S.setdiag(0)
        S.eliminate_zeros()
        S = SocialMatrix(S.maximum(S.T).tocsr())
        scores = rng.standard_normal((12, 12))
        rebuilt = binarize_social(S, scores, None)
        old_deg = np.diff(S.matrix.indptr)
        new_deg = np.diff(rebuilt.matrix.indptr)
        assert np.array_equal(old_deg, new_deg)
        assert rebuilt.matrix.diagonal().sum() == 0.0


class TestBinarizeAgainstLoop:
    """The whole-matrix re-binarization equals a per-user lexsort loop."""

    @staticmethod
    def assert_same(S, s_bar, keep):
        assert_same_csr(binarize_social(S, s_bar, keep).matrix, loop_binarize(S, s_bar, keep))

    @pytest.mark.parametrize("keep", [None, 0, 3, 45])
    def test_heavy_ties(self, rng, keep):
        S = SocialMatrix(rand_binary_csr(rng, 40, 40, 0.15))  # self-loops included
        s_bar = rng.integers(0, 3, size=(40, 40)).astype(np.float64)
        self.assert_same(S, s_bar, keep)

    def test_signed_zeros_tie(self, rng):
        S = SocialMatrix(rand_binary_csr(rng, 16, 16, 0.3))
        s_bar = rng.choice([0.0, -0.0, 0.5], size=(16, 16))
        for keep in (None, 2, 15):
            self.assert_same(S, s_bar, keep)

    def test_more_users_than_one_block(self, rng):
        n = ROW_BLOCK + 70
        S = SocialMatrix(rand_binary_csr(rng, n, n, 0.02))
        s_bar = np.round(rng.standard_normal((n, n)), 1)
        self.assert_same(S, s_bar, None)
        self.assert_same(S, s_bar, n + 5)

    def test_single_user(self):
        S = SocialMatrix(sp.csr_matrix(np.ones((1, 1))))
        self.assert_same(S, np.ones((1, 1)), None)
        self.assert_same(S, np.ones((1, 1)), 2)

    @pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 1.0])
    def test_pair_blended_in_the_block(self, rng, w):
        # a block of a pair re-binarizes as its blend does, rounded ties included
        S = SocialMatrix(rand_binary_csr(rng, 40, 40, 0.15))
        a, b = (np.round(rng.standard_normal((30, 40)), 1) for _ in range(2))
        for keep in (None, 3):
            got = binarize_social(S, a, keep, 10, other=b, w=w).matrix
            assert_same_csr(got, binarize_social(S, blend(a, b, w), keep, 10).matrix)


class TestConditionBuilders:
    def test_social_condition_delta_zero_is_input(self, rng):
        S = SocialMatrix(rand_binary_csr(rng, 8, 8, 0.2))
        R = InteractionMatrix(rand_binary_csr(rng, 8, 10, 0.3))
        R_l = long_tail(R, partition_items(R, 0.2))
        assert_same_csr(build_social_condition(S, R_l, 0.0, slice(2, 5)), S.matrix[2:5])

    def test_item_condition_lam_zero_is_input(self, rng):
        S = SocialMatrix(rand_binary_csr(rng, 8, 8, 0.2))
        R = InteractionMatrix(rand_binary_csr(rng, 8, 10, 0.3))
        assert_same_csr(build_item_condition(S, R, 0.0, slice(2, 5)), R.matrix[2:5])

    def test_item_condition_inverts_neighbor_counts(self):
        S_bar = SocialMatrix(sp.csr_matrix(np.array([[0.0, 1], [1, 0]])))
        R = InteractionMatrix(sp.csr_matrix(np.array([[0.0, 1], [1, 1]])))
        out = build_item_condition(S_bar, R, 2.0, slice(0, 1))
        # user 0's neighbor (user 1) interacted with items 0 and 1:
        # r_s = [1, 1] -> f = [1, 1] -> row 0 = 2*[1,1] + [0,1] = [2,3]
        np.testing.assert_array_equal(out.toarray(), [[2.0, 3.0]])

    def test_chunk_rows_equal_the_whole_products(self, rng):
        # the rows a chunk builds, a partial last chunk included, stack to
        # the whole sparse products bit for bit, stored entries and their
        # order included
        n = CHUNK + 40
        S = rand_binary_csr(rng, n, n, 0.02)
        S = SocialMatrix(S.maximum(S.T).tocsr())
        R = InteractionMatrix(rand_binary_csr(rng, n, 60, 0.1))
        R_l = long_tail(R, partition_items(R, 0.2))
        cpl = (R_l.matrix @ R_l.matrix.T).tocsr()
        cpl.eliminate_zeros()
        counts = (S.matrix @ R.matrix).tocsr()
        counts.eliminate_zeros()
        counts.data = 1.0 / counts.data
        spans = [slice(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]
        for build, whole in (
            (partial(build_social_condition, S, R_l, 0.5), 0.5 * cpl + S.matrix),
            (partial(build_item_condition, S, R, 2.0), 2.0 * counts + R.matrix),
            (partial(copurchase, R_l), cpl),
            (partial(social_preference, S, R), (S.matrix @ R.matrix).tocsr()),
        ):
            whole = whole.tocsr()
            whole.eliminate_zeros()
            assert_same_csr(sp.vstack([build(span) for span in spans], format="csr"), whole)


class TestJointInference:
    def build_fixture(self, rng, n_users=12, n_items=16):
        R = InteractionMatrix(rand_binary_csr(rng, n_users, n_items, 0.3))
        S = rand_binary_csr(rng, n_users, n_users, 0.25)
        S.setdiag(0)
        S.eliminate_zeros()
        S = SocialMatrix(S.maximum(S.T).tocsr())
        hot = partition_items(R, 0.2)
        ckpt_item = untrained_checkpoint(n_items, T=3, seed=6)
        ckpt_social = untrained_checkpoint(n_users, T=3, seed=7, tag="CSD")
        return ckpt_social, ckpt_item, S, R, hot

    def test_zero_config_reduces_bitwise(self, rng):
        ckpt_social, ckpt_item, S, R, hot = self.build_fixture(rng)
        cfg = GuidanceConfig(T_inf=3)
        out = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=42), cfg.w_r)
        base = whole_scores(
            ckpt_item.params, ckpt_item.sched, R.matrix, T_inf=3, seed=42, stage=STAGE_ITEM
        )
        assert np.array_equal(out, base)

    def test_social_ckpt_optional_when_lam_zero(self, rng):
        _, ckpt_item, S, R, hot = self.build_fixture(rng)
        cfg = GuidanceConfig(T_inf=3, w_r=0.3)
        out = blend(*joint_chains(None, ckpt_item, None, R, hot, cfg, seed=1), cfg.w_r)
        assert out.shape == (12, 16)

    def test_lam_positive_requires_social(self, rng):
        _, ckpt_item, S, R, hot = self.build_fixture(rng)
        cfg = GuidanceConfig(T_inf=3, lam=0.5)
        with pytest.raises(ConfigError):
            joint_chains(None, ckpt_item, None, R, hot, cfg, seed=1)

    def test_wr_mix_is_affine_in_endpoints(self, rng):
        ckpt_social, ckpt_item, S, R, hot = self.build_fixture(rng)
        base = dict(T_inf=3, lam=1.0, delta=0.5, eta=0.3, gamma=0.4, w_s=0.25)
        at0, at1, mid = (
            blend(*joint_chains(
                ckpt_social, ckpt_item, S, R, hot, GuidanceConfig(w_r=w_r, **base), seed=5,
            ), w_r)
            for w_r in (1e-12, 1.0, 0.3)
        )
        # chains do not depend on w_r, so outputs are affine in it
        np.testing.assert_allclose(mid, 0.7 * at0 + 0.3 * at1, rtol=1e-9, atol=1e-12)

    def test_determinism_across_runs(self, rng):
        ckpt_social, ckpt_item, S, R, hot = self.build_fixture(rng)
        cfg = GuidanceConfig(T_inf=3, lam=0.5, delta=0.2, eta=0.1, gamma=0.2, w_s=0.3, w_r=0.4)
        a = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=9), cfg.w_r)
        b = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=9), cfg.w_r)
        assert np.array_equal(a, b)
        c = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=10), cfg.w_r)
        assert not np.array_equal(a, c)

    def test_isolated_user_zero_condition(self, rng):
        # user 0 has no neighbors and interacts with a unique tail item,
        # so its social preference row is zero and the condition row
        # falls back to the raw interaction row
        n_users, n_items = 6, 10
        R_dense = np.zeros((n_users, n_items))
        R_dense[0, 9] = 1
        for u in range(1, n_users):
            R_dense[u, :3] = 1
        R = InteractionMatrix(sp.csr_matrix(R_dense))
        S_dense = np.zeros((n_users, n_users))
        for u in range(1, n_users - 1):
            S_dense[u, u + 1] = S_dense[u + 1, u] = 1
        S = SocialMatrix(sp.csr_matrix(S_dense))
        hot = partition_items(R, 0.3)  # items 0-2 are hot
        ckpt_item = untrained_checkpoint(n_items, T=3, seed=1)
        ckpt_social = untrained_checkpoint(n_users, T=3, seed=2, tag="CSD")
        cfg = GuidanceConfig(T_inf=3, lam=1.0)
        out = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=0), cfg.w_r)
        assert out.shape == (n_users, n_items)
        assert np.all(np.isfinite(out))


def cli_child(threads: int, cwd, *argv) -> str:
    """The stdout of `python -m cgsorec.cli *argv` run in `cwd` in a child
    process at OPENBLAS_NUM_THREADS=threads, which must exit 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    child = subprocess.run([sys.executable, "-m", "cgsorec.cli", *argv], cwd=cwd, env=env,
                           capture_output=True, text=True, check=False)
    assert child.returncode == 0, child.stderr
    return child.stdout


def blas_threads():
    """NumPy's OpenBLAS thread count, as _chain_rows' hold reads it."""
    return _openblas().get()


class TestChunkTasks:
    """Each chunk is one task on a chain worker, which builds its
    condition rows, runs its chains, checks them and reduces them; blocks
    and errors reach the caller in chunk order."""

    def test_cond_and_reduce_run_whole_on_a_worker(self, rng, monkeypatch):
        monkeypatch.setattr(guidance, "WORKERS", 2)
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rand_binary_csr(rng, 3 * CHUNK + 40, 7, 0.3)
        seen = []

        def cond(span):
            seen.append(("cond", span.start, threading.current_thread()))
            return rows[span]

        def reduce(span, a, b):
            seen.append(("reduce", span.start, threading.current_thread()))
            return span.start

        got = _chain_rows(ckpt.params, ckpt.sched, rows, None, cond, 0.4, True, 5, STAGE_ITEM,
                          reduce)
        starts = list(range(0, 4 * CHUNK, CHUNK))
        assert got == starts
        where = {(name, start): thread for name, start, thread in seen}
        assert len(seen) == len(where) == 2 * len(starts)
        for start in starts:
            assert where["cond", start] is where["reduce", start]
            assert where["cond", start] is not threading.current_thread()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("later", ["non-finite", "bad condition rows"])
    def test_the_first_chunk_error_wins(self, rng, monkeypatch, workers, later):
        # chunk 1's reduce fails; chunk 2 holds a NaN row or gets condition
        # rows of the wrong shape, and at two workers chunk 1's reduce
        # waits until chunk 2 has started, so chunk 2 may fail first
        monkeypatch.setattr(guidance, "WORKERS", workers)
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((3 * CHUNK + 40, 7))
        if later == "non-finite":
            rows[2 * CHUNK + 5, 3] = np.nan
        started = threading.Event()

        def cond(span):
            if span.start == 2 * CHUNK:
                started.set()
                if later == "bad condition rows":
                    return sp.csr_matrix((3, 7))
            return sp.csr_matrix(rows[span])

        def reduce(span, a, b):
            if span.start == CHUNK:
                started.wait(10 if workers == 2 else 0)
                raise ValueError("chunk 1's reduce failed")
            return span.start

        with pytest.raises(ValueError, match="chunk 1's reduce failed"):
            _chain_rows(ckpt.params, ckpt.sched, rows, None, cond, 0.4, False, 5, STAGE_ITEM,
                        reduce)


@pytest.fixture
def two_blas_threads():
    """NumPy's OpenBLAS at two threads for the test, so that the hold's
    one thread shows; the count the test found is put back after."""
    get, put = _openblas().get, _openblas().put
    before = get()
    put(2)
    yield
    put(before)


@pytest.mark.skipif(_openblas() is None, reason="no settable NumPy OpenBLAS here")
@pytest.mark.usefixtures("two_blas_threads")
class TestOneBlasThread:
    """_chain_rows holds NumPy's OpenBLAS to one thread from its first
    product until it returns or raises, and runs its chunks on WORKERS
    threads, none outliving the call, with bytes and errors as one
    worker gives them."""

    def test_chains_run_at_one_thread_and_restore_the_count(self, rng, monkeypatch):
        seen = []

        def mean(*args):
            seen.append(blas_threads())
            return model_mean(*args)

        monkeypatch.setattr(guidance, "model_mean", mean)
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        whole_scores(ckpt.params, ckpt.sched, rand_binary_csr(rng, 2 * CHUNK + 40, 7, 0.3))
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_restored_after_a_non_finite_chain(self, rng):
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((2 * CHUNK + 40, 7))
        rows[CHUNK + 3, 2] = np.nan
        with pytest.raises(NumericError):
            whole_scores(ckpt.params, ckpt.sched, rows)
        assert blas_threads() == 2

    def test_restored_when_a_reduce_raises(self, rng):
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rand_binary_csr(rng, 3 * CHUNK, 7, 0.3)

        def reduce(span, a, b):
            raise ValueError("reduce failed")

        with pytest.raises(ValueError, match="reduce failed"):
            unconditional_scores(ckpt.params, ckpt.sched, rows, None, 1, STAGE_ITEM, reduce)
        assert blas_threads() == 2

    @pytest.mark.parametrize("ends", ["returns", "non-finite", "reduce raises"])
    def test_no_chain_worker_outlives_the_call(self, rng, ends):
        # the workers are joined and the count put back however the call
        # ends: chunk 1 holds a NaN, and reduce fails on chunk 1
        before = set(threading.enumerate())
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((3 * CHUNK, 7))
        if ends == "non-finite":
            rows[CHUNK + 3, 2] = np.nan

        def reduce(span, a, b):
            if ends == "reduce raises" and span.start == CHUNK:
                raise ValueError("reduce failed")
            return span.start

        call = partial(unconditional_scores, ckpt.params, ckpt.sched, rows, None, 1, STAGE_ITEM,
                       reduce)
        if ends == "returns":
            assert call() == [0, CHUNK, 2 * CHUNK]
        else:
            with pytest.raises(NumericError if ends == "non-finite" else ValueError):
                call()
        assert set(threading.enumerate()) == before
        assert blas_threads() == 2

    def test_training_steps_run_at_one_thread_and_restore_the_count(self, monkeypatch):
        # both halves of every gradient step, before and after each
        # validation's own hold, run at one thread, and the count training
        # found is back once it returns, and once it raises (at learning
        # rate 1e200 the second batch's loss is refused)
        R = to_matrices(planted(seed=0))[0].matrix
        traced, seen = trainer.loss_and_grad, []

        def loss_and_grad(*args, **kwargs):
            seen.append((threading.current_thread() is threading.main_thread(), blas_threads()))
            return traced(*args, **kwargs)

        monkeypatch.setattr(trainer, "loss_and_grad", loss_and_grad)
        sched = make_schedule(3, 1e-4, 0.02)
        validate = recall_validator(R, R, sp.csr_matrix(R.shape), sched, seed=3)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=64, seed=1, valid_every=1)
        run = partial(trainer.train_model, "CGD", R, sched=sched, hidden_dims=(8,),
                      time_embed_dim=4, validate=validate)
        ckpt = run(cfg=cfg)
        assert [e.valid_metric is not None for e in ckpt.history] == [True, True]
        steps = 2 * -(-R.shape[0] // 64)
        assert sorted(seen) == [(False, 1)] * steps + [(True, 1)] * steps
        assert blas_threads() == 2

        seen.clear()
        with pytest.raises(NumericError, match=r"^CGD epoch 1 batch 2: non-finite"):
            run(cfg=replace(cfg, learning_rate=1e200))
        assert sorted(seen) == [(False, 1)] * 2 + [(True, 1)] * 2
        assert blas_threads() == 2

    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_one_worker_and_two_give_the_same_bytes(self, rng, monkeypatch, w):
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rand_binary_csr(rng, 3 * CHUNK + 40, 7, 0.3)  # the last chunk partial
        cond = rows + sp.csr_matrix(2.0 * (rng.random(rows.shape) < 0.2))
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(guidance, "WORKERS", workers)
            got[workers] = whole_pair(
                ckpt.params, ckpt.sched, rows, cond, 0.4, GuidanceConfig(), 5, STAGE_ITEM, w
            )
        (a1, b1), (a2, b2) = got[1], got[2]
        assert a1.tobytes() == a2.tobytes()
        assert b1 is b2 is None if w == 0.0 else b1.tobytes() == b2.tobytes()

    def test_the_first_non_finite_user_is_the_serial_one(self, rng, monkeypatch):
        # chunks 1 and 2 run at once on two workers and both hold a bad
        # row; the one named is chunk 1's, as one worker names it
        ckpt = untrained_checkpoint(7, T=3, seed=8)
        rows = rng.random((3 * CHUNK + 40, 7))
        rows[CHUNK + 3, 2] = np.nan
        rows[2 * CHUNK, 1] = np.nan
        for workers in (1, 2):
            monkeypatch.setattr(guidance, "WORKERS", workers)
            with pytest.raises(NumericError, match=f"item chain .* user {CHUNK + 3}$"):
                whole_scores(ckpt.params, ckpt.sched, rows)

    def test_guided_lists_do_not_depend_on_the_thread_count(self, tmp_path):
        # at lastfm_like's shapes and the benchmark's hidden width, the
        # chain's products (head_z = W_out @ W0x among them) round
        # differently at one thread and two; planted's shapes do not
        ds = lastfm_like(seed=0)
        write_dataset(ds, tmp_path / "r.tsv", tmp_path / "s.tsv")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "seed": 1,
            "output_dir": "run",
            "dataset": {"interactions": "r.tsv", "social": "s.tsv"},
            "guidance": {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5,
                         "w_r": 0.2},
        }))
        save_checkpoint(untrained_checkpoint(ds.n_items, T=3, seed=21, hidden=(200,)),
                        tmp_path / "ck-item")
        save_checkpoint(untrained_checkpoint(ds.n_users, T=3, seed=22, hidden=(200,), tag="CSD"),
                        tmp_path / "ck-social")
        lists = {}
        for threads in (1, 2):
            out = f"lists-{threads}.tsv"
            cli_child(threads, tmp_path, "infer", "cfg.json", "--ckpt-cgd", "ck-item",
                      "--ckpt-csd", "ck-social", "--out", out)
            lists[threads] = (tmp_path / out).read_bytes()
        assert lists[1] == lists[2]

    def test_trained_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # train's stdout and checkpoint at one BLAS thread and two, at
        # lastfm_like's shapes and the benchmark's hidden width (the
        # products of planted's shapes may round alike at both counts)
        ds = lastfm_like(seed=0)
        got = {}
        for threads in (1, 2):
            run = tmp_path / f"threads-{threads}"
            run.mkdir()
            write_dataset(ds, run / "r.tsv", run / "s.tsv")
            (run / "cfg.json").write_text(json.dumps({
                "seed": 1,
                "output_dir": "run",
                "dataset": {"interactions": "r.tsv", "social": "s.tsv"},
                "cgd": {"T": 5, "hidden_dims": [200], "epochs": 2},
            }))
            stdout = cli_child(threads, run, "train", "cfg.json", "--model", "cgd", "--verbose")
            ckpt = run / "run" / "ckpt-cgd"
            got[threads] = [stdout] + [
                (ckpt / name).read_bytes() for name in ("params.bin", "manifest.json")
            ]
        assert got[1] == got[2]


class TestGoldenTrace:
    """Straight-line reimplementation of the full pipeline on a 5x8 fixture.

    Every formula is restated inline (forward pass, posterior
    coefficients, corruption, blending, binarization) so agreement with
    blend(*joint_chains(...), w_r) checks the composed pipeline end to end.
    """

    def test_five_user_eight_item_trace(self):
        m, n, T_inf, seed = 5, 8, 2, 1234
        cfg = GuidanceConfig(
            eta=0.3, gamma=0.4, w_s=0.25, w_r=0.5, delta=0.5, lam=1.0, T_inf=2
        )
        R_dense = np.array(
            [
                [1, 0, 1, 0, 0, 1, 0, 0],
                [1, 1, 0, 0, 1, 0, 0, 0],
                [0, 1, 1, 0, 0, 0, 1, 0],
                [1, 0, 0, 1, 0, 0, 0, 1],
                [0, 1, 0, 0, 1, 1, 0, 0],
            ],
            dtype=np.float64,
        )
        S_dense = np.array(
            [
                [0, 1, 0, 0, 1],
                [1, 0, 1, 0, 0],
                [0, 1, 0, 1, 0],
                [0, 0, 1, 0, 1],
                [1, 0, 0, 1, 0],
            ],
            dtype=np.float64,
        )
        R = InteractionMatrix(sp.csr_matrix(R_dense))
        S = SocialMatrix(sp.csr_matrix(S_dense))
        hot = partition_items(R, 0.25)  # ceil(2) = 2 hot items
        ckpt_item = untrained_checkpoint(n, T=3, seed=21)
        ckpt_social = untrained_checkpoint(m, T=3, seed=22, tag="CSD")

        got = blend(*joint_chains(ckpt_social, ckpt_item, S, R, hot, cfg, seed=seed), cfg.w_r)

        # ---- independent trace ----
        sched = ckpt_item.sched  # both checkpoints share schedule settings
        alpha, abar = sched.alpha, sched.alpha_bar

        def coeffs(t):
            ab_prev = 1.0 if t == 1 else abar[t - 2]
            denom = 1.0 - abar[t - 1]
            return (
                np.sqrt(alpha[t - 1]) * (1.0 - ab_prev) / denom,
                np.sqrt(ab_prev) * (1.0 - alpha[t - 1]) / denom,
            )

        def forward(params, x, t):
            half = params.time_embed_dim // 2
            freqs = np.exp(
                -np.log(10000.0) * np.arange(half, dtype=np.float64) / half
            )
            args = np.full((x.shape[0], 1), float(t)) * freqs[None, :]
            emb = np.concatenate([np.cos(args), np.sin(args)], axis=1)
            if params.time_embed_dim % 2:
                emb = np.concatenate([emb, np.zeros((x.shape[0], 1))], axis=1)
            h = np.concatenate([x, emb], axis=1)
            last = len(params.weights) - 1
            for l, (w, b) in enumerate(zip(params.weights, params.biases)):
                h = h @ w + b
                if l != last:
                    h = np.tanh(h)
            return h

        def chain(params, rows, cond, mix, stage):
            eps = np.stack(
                [
                    np.random.default_rng([seed ^ u, stage]).standard_normal(
                        rows.shape[1]
                    )
                    for u in range(rows.shape[0])
                ]
            )
            x = np.sqrt(abar[T_inf - 1]) * rows + np.sqrt(1 - abar[T_inf - 1]) * eps
            for t in range(T_inf, 0, -1):
                c_xt, c_x0 = coeffs(t)
                mean = c_xt * x + c_x0 * forward(params, x, t)
                if cond is not None and mix > 0:
                    cond_mean = c_xt * cond + c_x0 * forward(params, cond, t)
                    mean = (1 - mix) * mean + mix * cond_mean
                x = mean
            return x

        # social side
        R_l = R_dense * ~hot
        S_cpl = R_l @ R_l.T
        S_prime = cfg.delta * S_cpl + S_dense
        out_a = chain(ckpt_social.params, S_dense, S_prime, cfg.eta, STAGE_SOCIAL)
        out_b = chain(ckpt_social.params, S_prime, None, 0.0, STAGE_SOCIAL_COND)
        s_bar = (1 - cfg.w_s) * out_a + cfg.w_s * out_b

        # degree-preserving binarization with ascending-id tie-break
        S_bar = np.zeros((m, m))
        degrees = S_dense.sum(axis=1).astype(int)
        for u in range(m):
            scores = s_bar[u].copy()
            scores[u] = -np.inf
            order = np.lexsort((np.arange(m), -scores))
            S_bar[u, order[: degrees[u]]] = 1.0

        # item side
        r_social = S_bar @ R_dense
        f = np.where(r_social > 0, 1.0 / np.where(r_social > 0, r_social, 1.0), 0.0)
        R_prime = cfg.lam * f + R_dense
        item_a = chain(ckpt_item.params, R_dense, R_prime, cfg.gamma, STAGE_ITEM)
        item_b = chain(ckpt_item.params, R_prime, None, 0.0, STAGE_ITEM_COND)
        expected = (1 - cfg.w_r) * item_a + cfg.w_r * item_b

        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
