"""The social-edge holdout that early-stops the social model, the split
manifest's two read paths, and the streamed ranking's lists and memory."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec import guidance
from cgsorec.config import config_from_dict
from cgsorec.corpus import (
    InteractionMatrix,
    SocialMatrix,
    SplitBundle,
    build_debiased_test,
    long_tail,
    partition_items,
    split,
)
from cgsorec.errors import IntegrityError
from cgsorec.evaluation import topk_lists
from cgsorec.guidance import (
    CHUNK,
    GuidanceConfig,
    build_social_condition,
    joint_chains,
    social_phase,
)
from cgsorec.pipeline import (
    chain_args,
    joint_lists,
    load_manifest,
    social_holdout,
    train_item_model,
    write_manifest,
)
from cgsorec.synth import planted

from conftest import rand_binary_csr, untrained_checkpoint


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
        bundle = SplitBundle(
            train=b.train, valid=b.valid, test=b.test, seed=b.seed,
            debiased_test=build_debiased_test(b.test, cap=1, seed=0),
        )
        cfg = config_from_dict({"output_dir": str(tmp_path), "split": {"ratios": list(ratios)}})
        return bundle, write_manifest(cfg, bundle)

    @pytest.mark.parametrize("ratios", [(0.7, 0.15, 0.15), (0.8, 0.0, 0.2)])
    def test_both_layouts_give_the_written_bundle(self, tmp_path, rng, ratios):
        bundle, path = self.write(tmp_path, rng, ratios)
        other = tmp_path / "indented.json"
        other.write_text(json.dumps(json.loads(open(path, "rb").read()), indent=1))
        for loaded in (load_manifest(path, self.shape), load_manifest(other, self.shape)):
            assert loaded.seed == bundle.seed
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
        with pytest.raises(IntegrityError, match=f"{field} is not of type int: {value!r}"):
            load_manifest(path, self.shape)

    def test_leading_zero_is_not_json(self, tmp_path, rng):
        _, path = self.write(tmp_path, rng, (0.7, 0.15, 0.15))
        text = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b'"train": [[', b'"train": [[0', 1))
        with pytest.raises(IntegrityError, match="bad split manifest"):
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
        bundle = SplitBundle(
            b.train, b.valid, b.test, b.seed, build_debiased_test(b.test, cap=1, seed=0)
        )
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
    R, S = planted(seed=0, n_users=n_users).to_matrices()
    b = split(R, (0.8, 0.1, 0.1), seed=0)
    debiased = build_debiased_test(b.test, cap=1, seed=0)
    return S, SplitBundle(b.train, b.valid, b.test, b.seed, debiased)


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
    the guided lists' peak by more than one dense matrix."""

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
