"""The social-edge holdout that early-stops the social model, the split
manifest's two read paths, the streamed ranking's lists and memory, and
the memory of a training batch."""

import json
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec import evaluation, guidance
from cgsorec.corpus import (
    InteractionMatrix,
    SocialMatrix,
    SplitBundle,
    build_debiased_test,
    long_tail,
    partition_items,
    split,
)
from cgsorec.errors import DataError
from cgsorec.evaluation import top_k_grid, topk_lists
from cgsorec.guidance import (
    CHUNK,
    GuidanceConfig,
    build_item_condition,
    build_social_condition,
    item_phase,
    joint_chains,
    social_phase,
)
from cgsorec.pipeline import chain_args, joint_lists, social_holdout, train_item_model
from cgsorec.schedule import make_schedule
from cgsorec.store import TrainConfig, load_manifest, write_manifest
from cgsorec.synth import planted
from cgsorec.trainer import train_model

from conftest import rand_binary_csr, untrained_checkpoint
from reference import config_from_dict, to_matrices


def symmetric_social(rng, n, density):
    S = rand_binary_csr(rng, n, n, density)
    S.setdiag(0)
    S.eliminate_zeros()
    return SocialMatrix(S.maximum(S.T).tocsr())


class TestSocialHoldout:
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
    def test_held_and_kept_split_each_row(self, rng, fraction):
        S = symmetric_social(rng, 60, 0.1)
        train, held, mask = social_holdout(S, fraction, seed=3)
        m = S.matrix
        for u in range(S.n_users):
            row = set(m.indices[m.indptr[u] : m.indptr[u + 1]].tolist())
            kept = train.indices[train.indptr[u] : train.indptr[u + 1]].tolist()
            out = held.indices[held.indptr[u] : held.indptr[u + 1]].tolist()
            assert kept == sorted(kept) and out == sorted(out)
            assert set(kept) | set(out) == row
            assert not set(kept) & set(out)
            want = max(1, int(np.floor(len(row) * fraction))) if len(row) >= 2 else 0
            assert len(out) == want
        assert held.nnz > 0 and train.nnz + held.nnz == m.nnz
        assert (train.data == 1.0).all() and (held.data == 1.0).all()
        np.testing.assert_array_equal(
            mask.toarray(), train.toarray() + np.eye(S.n_users)
        )

    def test_fixed_seed_is_reproducible(self, rng):
        S = symmetric_social(rng, 40, 0.15)
        first, again = social_holdout(S, 0.3, seed=9), social_holdout(S, 0.3, seed=9)
        for a, b in zip(first, again):
            for name in ("indptr", "indices", "data"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        other = social_holdout(S, 0.3, seed=10)[1]
        assert (other != first[1]).nnz > 0

    def test_zero_fraction_holds_nothing(self, rng):
        S = symmetric_social(rng, 20, 0.2)
        train, held, _ = social_holdout(S, 0.0, seed=1)
        assert held.nnz == 0
        assert (train != S.matrix).nnz == 0

    def test_degree_one_rows_keep_their_edge(self):
        S = SocialMatrix(sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)))
        train, held, _ = social_holdout(S, 0.9, seed=0)
        assert held.toarray().sum(axis=1).tolist() == [0, 1, 0]
        assert train.toarray()[[0, 2]].sum() == 2


class TestManifestLayouts:
    """write_manifest's layout and any other layout of the same JSON load
    as the written bundle, bit for bit."""

    shape = (30, 40)

    def write(self, tmp_path, rng, ratios):
        R = InteractionMatrix(rand_binary_csr(rng, *self.shape, 0.2))
        b = split(R, ratios, seed=3)
        bundle = replace(b, debiased_test=build_debiased_test(b.test, cap=1, seed=0))
        # the ratios written are the bundle's, whatever the config says
        return bundle, write_manifest(config_from_dict({"output_dir": str(tmp_path)}), bundle)

    @pytest.mark.parametrize("ratios", [(0.7, 0.15, 0.15), (0.8, 0.0, 0.2)])
    def test_both_layouts_give_the_written_bundle(self, tmp_path, rng, ratios):
        bundle, path = self.write(tmp_path, rng, ratios)
        other = tmp_path / "indented.json"
        other.write_text(json.dumps(json.loads(open(path, "rb").read()), indent=1))
        for loaded in (load_manifest(path, self.shape), load_manifest(other, self.shape)):
            assert loaded.seed == bundle.seed and loaded.ratios == bundle.ratios == ratios
            for name in ("train", "valid", "test", "debiased_test"):
                got, want = getattr(loaded, name).matrix, getattr(bundle, name).matrix
                assert got.shape == want.shape
                for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                             (got.data, want.data)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "field, value", [("n_users", 30.7), ("n_users", "30"), ("seed", "7"), ("seed", 1.5)]
    )
    def test_field_of_another_json_type_is_refused(self, tmp_path, rng, field, value):
        # int() once read 30.7 as 30 and "7" as 7
        _, path = self.write(tmp_path, rng, (0.7, 0.15, 0.15))
        d = json.loads(open(path, "rb").read())
        d[field] = value
        with open(path, "w") as fh:
            json.dump(d, fh)
        with pytest.raises(DataError, match=f"{field} is not of type int: {value!r}"):
            load_manifest(path, self.shape)

    def test_leading_zero_is_not_json(self, tmp_path, rng):
        _, path = self.write(tmp_path, rng, (0.7, 0.15, 0.15))
        text = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b'"train": [[', b'"train": [[0', 1))
        with pytest.raises(DataError, match="bad split manifest"):
            load_manifest(path, self.shape)


class TestStreamedLists:
    """joint_lists ranks each block of the item pair as it is made; over
    several blocks, the last one partial, its lists are those of the
    whole pair ranked at once, bit for bit."""

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(5)
        n_users, n_items = CHUNK + 40, 30
        R = InteractionMatrix(rand_binary_csr(rng, n_users, n_items, 0.15))
        b = split(R, (0.8, 0.1, 0.1), seed=3)
        bundle = replace(b, debiased_test=build_debiased_test(b.test, cap=1, seed=0))
        S = symmetric_social(rng, n_users, 0.02)
        ckpt_social = untrained_checkpoint(n_users, T=3, seed=7, tag="CSD")
        return ckpt_social, untrained_checkpoint(n_items, T=3, seed=6), S, bundle

    GUIDED = {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2}

    @pytest.mark.parametrize(
        "guidance",
        [GUIDED, {}, dict(GUIDED, w_r=0.0), dict(GUIDED, w_s=0.0), dict(GUIDED, **{"lambda": 0.0})],
        ids=["guided", "unguided", "w_r=0", "w_s=0", "lambda=0"],
    )
    def test_lists_of_the_whole_pair(self, inputs, guidance):
        ckpt_social, ckpt_item, S, bundle = inputs
        cfg = config_from_dict({"guidance": guidance})
        got = joint_lists(cfg, ckpt_social, ckpt_item, S, bundle, 10)
        a, b = joint_chains(*chain_args(cfg, ckpt_social, ckpt_item, S, bundle))
        want = topk_lists(a, 10, mask=bundle.train, other=b, w=cfg.guidance().w_r)
        for name in ("users", "items", "scores"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def planted_bundle(n_users: int) -> tuple[SocialMatrix, SplitBundle]:
    R, S = to_matrices(planted(seed=0, n_users=n_users))
    b = split(R, (0.8, 0.1, 0.1), seed=0)
    debiased = build_debiased_test(b.test, cap=1, seed=0)
    return S, replace(b, debiased_test=debiased)


def traced_peak(run) -> int:
    """Bytes tracemalloc sees allocated at once while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Inference and training validation hold no dense score matrix and
    no whole condition graph: from 200 to 800 users on `planted`, with
    CHUNK at 32 rows, the traced peak grows by less than one dense matrix
    of the chains' width, where whole chains (the item pair, the two
    social chains and their blend, or the validation chain) add one each.

    Both condition graphs are built a chunk at a time, inside the chain
    loop.  On `planted` R' is about 45% dense, so building it whole grew
    the guided lists' peak by more than one dense matrix.

    A sweep holds the whole item pair, but fills it in place, and ranks
    its w_r grid a block at a time, each block's survivors gathered at
    that block's widest row, so the grid holds no array of all the rows
    but its outputs, even when one row's items all tie.

    A training batch holds, beside the params and Adam moments, the
    epoch's one input buffer and each half's residual and gradients."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(guidance, "CHUNK", 32)

    def test_item_lists(self):
        cfg = config_from_dict({"guidance": {"gamma": 0.5, "w_r": 0.2}})
        peaks = {}
        for n in (200, 800):
            _, bundle = planted_bundle(n)
            ckpt = untrained_checkpoint(bundle.train.n_items, T=3, seed=1)
            peaks[n] = traced_peak(lambda: joint_lists(cfg, None, ckpt, None, bundle, 10))
        assert peaks[800] - peaks[200] < 800 * bundle.train.n_items * 8, peaks

    def test_social_graph(self):
        cfg = GuidanceConfig(eta=0.2, w_s=0.5, delta=1.0, lam=2.0)
        peaks = {}
        for n in (200, 800):
            S, bundle = planted_bundle(n)
            hot = partition_items(bundle.train, 0.05)
            cond = partial(build_social_condition, S, long_tail(bundle.train, hot), cfg.delta)
            ckpt = untrained_checkpoint(n, T=3, seed=2, tag="CSD")
            peaks[n] = traced_peak(lambda: social_phase(ckpt, S, cond, cfg, 0))
        assert peaks[800] - peaks[200] < 800 * 800 * 8, peaks

    def test_guided_lists(self):
        # every guidance value of the README's example is > 0, so both
        # condition graphs and both pairs of chains are built
        cfg = config_from_dict({"guidance": TestStreamedLists.GUIDED})
        peaks = {}
        for n in (200, 800):
            S, bundle = planted_bundle(n)
            ckpt_social = untrained_checkpoint(n, T=3, seed=2, tag="CSD")
            ckpt_item = untrained_checkpoint(bundle.train.n_items, T=3, seed=1)
            peaks[n] = traced_peak(
                lambda: joint_lists(cfg, ckpt_social, ckpt_item, S, bundle, 10)
            )
        assert peaks[800] - peaks[200] < 800 * bundle.train.n_items * 8, peaks

    def test_training_validation(self):
        model = {"T": 3, "hidden_dims": [16], "epochs": 1, "batch_size": 64, "valid_every": 1}
        cfg = config_from_dict({"cgd": model})
        peaks = {}
        for n in (200, 800):
            _, bundle = planted_bundle(n)
            peaks[n] = traced_peak(lambda: train_item_model(cfg, bundle))
        assert peaks[800] - peaks[200] < 800 * bundle.train.n_items * 8, peaks

    def test_training_batch(self, rng):
        # a batch's step holds the float32 params and Adam moments, the
        # epoch's input buffer, and each half's residual and gradients;
        # noise drawn apart from the buffer, a copy of it per half, or the
        # last batch's gradients kept into the next step each add about
        # one (B, n) array, which the 1 MiB slack does not cover
        n_rows, n, B, H, temb = 800, 1500, 400, 200, 16
        data = rand_binary_csr(rng, n_rows, n, 0.05)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, seed=0, batch_size=B)
        peak = traced_peak(lambda: train_model(
            "CGD", data, cfg, make_schedule(3, 1e-4, 0.02), hidden_dims=(H,),
            time_embed_dim=temb,
        ))
        params = ((n + temb) * H + H + H * n + n) * 4
        buffer = B * (n + temb) * 4
        half = B // 2 * n * 4 + params
        assert peak < 3 * params + buffer + 2 * half + (1 << 20), peak

    def test_sweep_pair_is_filled_in_place(self, rng):
        # a pair gathered from its chunks would hold two chunks' blocks,
        # chain A's and chain B's, beside it while copying them in
        n_users, n_items = 300, 2000
        R = InteractionMatrix(rand_binary_csr(rng, n_users, n_items, 0.03))
        ckpt = untrained_checkpoint(n_items, T=3, seed=1)
        cfg = GuidanceConfig(gamma=0.5, w_r=0.2)
        cond = partial(build_item_condition, None, R, 0.0)
        peak = traced_peak(lambda: item_phase(ckpt, R, cond, cfg, 0))
        pair, blocks = 2 * n_users * n_items * 8, 2 * guidance.CHUNK * n_items * 8
        assert peak < pair + blocks, (peak, pair, blocks)

    @staticmethod
    def grid_pair(rng, monkeypatch):
        # each row's top 10 lead every other item at every w of the grid,
        # as a sweep's chains mostly do, so few items survive the bounds;
        # small blocks keep their buffers far below one whole bool mask
        # of the rows, so the bound fails a grid that holds one
        monkeypatch.setattr(evaluation, "ROW_BLOCK", 16)
        n_rows, n = 2000, 2500
        a, b = rng.random((n_rows, n)), rng.random((n_rows, n))
        top = (np.arange(n_rows)[:, None] + 250 * np.arange(10)) % n
        np.put_along_axis(a, top, 3.0, axis=1)
        return a, b

    def test_sweep_grid_holds_no_whole_mask(self, rng, monkeypatch):
        a, b = self.grid_pair(rng, monkeypatch)
        peak = traced_peak(lambda: top_k_grid(a, b, [0.0, 0.5], 10))
        assert peak < a.size, peak

    def test_a_tied_row_widens_only_its_block(self, rng, monkeypatch):
        # every item of row 7 ties at every w, so all of them survive: a
        # grid that gathers every row's survivors at the widest row's
        # width holds several whole (rows, n) arrays
        a, b = self.grid_pair(rng, monkeypatch)
        a[7], b[7] = 0.5, 0.5
        peak = traced_peak(lambda: top_k_grid(a, b, [0.0, 0.5], 10))
        assert peak < a.size, peak
