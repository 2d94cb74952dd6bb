"""The social-edge holdout that early-stops the social model."""

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.corpus import SocialMatrix
from cgsorec.pipeline import social_holdout

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
