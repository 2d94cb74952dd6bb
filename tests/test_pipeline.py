"""The social-edge holdout that early-stops the social model, and the split
manifest's two read paths."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.config import config_from_dict
from cgsorec.corpus import (
    InteractionMatrix,
    SocialMatrix,
    SplitBundle,
    build_debiased_test,
    split,
)
from cgsorec.errors import IntegrityError
from cgsorec.pipeline import load_manifest, social_holdout, write_manifest

from conftest import rand_binary_csr


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

    def write(self, tmp_path, rng, ratios):
        R = InteractionMatrix(rand_binary_csr(rng, 30, 40, 0.2))
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
        for loaded in (load_manifest(path), load_manifest(other)):
            assert loaded.seed == bundle.seed
            for name in ("train", "valid", "test", "debiased_test"):
                got, want = getattr(loaded, name).matrix, getattr(bundle, name).matrix
                assert got.shape == want.shape
                for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                             (got.data, want.data)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_leading_zero_is_not_json(self, tmp_path, rng):
        _, path = self.write(tmp_path, rng, (0.7, 0.15, 0.15))
        text = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(text.replace(b'"train": [[', b'"train": [[0', 1))
        with pytest.raises(IntegrityError, match="bad split manifest"):
            load_manifest(path)
