"""Planted-bias dataset generators: exact totals, coverage, and structure."""

import hashlib

import numpy as np
import pytest

from cgsorec.corpus import load_interactions, load_social
from cgsorec.synth import community_dataset, lastfm_like, planted, write_dataset

from reference import to_matrices


@pytest.fixture(scope="module")
def lastfm():
    return lastfm_like(seed=0)


@pytest.fixture(scope="module")
def small():
    return planted(seed=3)


class TestTotals:
    def test_lastfm_statistics(self, lastfm):
        assert lastfm.n_users == 1853
        assert lastfm.n_items == 2698
        assert len(lastfm.interactions) == 46542
        assert len(lastfm.social_edges) == 25435

    def test_planted_statistics(self, small):
        assert small.n_users == 200
        assert small.n_items == 300
        assert len(small.interactions) == 4800
        assert len(small.social_edges) == 2600

    def test_no_duplicate_interactions(self, small):
        pairs = {tuple(row) for row in small.interactions.tolist()}
        assert len(pairs) == len(small.interactions)

    def test_matrices_preserve_totals(self, small):
        R, S = to_matrices(small)
        assert R.matrix.nnz == 4800
        assert float(R.matrix.max()) == 1.0
        assert S.raw_edges == 2600


class TestDeterminism:
    def test_same_seed_identical(self):
        a = planted(seed=11)
        b = planted(seed=11)
        assert np.array_equal(a.interactions, b.interactions)
        assert np.array_equal(a.social_edges, b.social_edges)
        assert np.array_equal(a.communities, b.communities)

    def test_different_seed_differs(self):
        a = planted(seed=11)
        b = planted(seed=12)
        assert not np.array_equal(a.interactions, b.interactions)


class TestCoverage:
    def test_every_item_appears(self, small):
        counts = np.bincount(small.interactions[:, 1], minlength=small.n_items)
        assert counts.min() >= 1

    def test_every_user_active(self, small):
        by_user = np.bincount(small.interactions[:, 0], minlength=small.n_users)
        assert by_user.min() >= 5

    def test_every_user_has_a_neighbor(self, small):
        out_deg = np.bincount(small.social_edges[:, 0], minlength=small.n_users)
        in_deg = np.bincount(small.social_edges[:, 1], minlength=small.n_users)
        assert (out_deg + in_deg).min() >= 1

    def test_lastfm_coverage(self, lastfm):
        counts = np.bincount(lastfm.interactions[:, 1], minlength=lastfm.n_items)
        assert counts.min() >= 1
        by_user = np.bincount(lastfm.interactions[:, 0], minlength=lastfm.n_users)
        assert by_user.min() >= 5

    def test_no_self_loops(self, small, lastfm):
        for ds in (small, lastfm):
            assert np.all(ds.social_edges[:, 0] != ds.social_edges[:, 1])


class TestStructure:
    def test_symmetrized_matrix(self, small):
        _, S = to_matrices(small)
        assert (S.matrix != S.matrix.T).nnz == 0
        assert S.matrix.diagonal().sum() == 0.0

    def test_popularity_skew(self, small):
        # first few ids form the planted hot set; their mean count has to
        # dwarf the tail mean for the bias histograms to mean anything
        counts = np.bincount(small.interactions[:, 1], minlength=small.n_items)
        n_hot = round(0.05 * small.n_items)
        assert counts[:n_hot].mean() > 3 * counts[n_hot:].mean()

    def test_homophily(self, small):
        comm = small.communities
        a, b = small.social_edges[:, 0], small.social_edges[:, 1]
        intra = np.mean(comm[a] == comm[b])
        assert intra > 0.7

    def test_community_niches_are_disjoint(self, small):
        # each community concentrates on tail items that other communities
        # rarely touch: a user's strongest tail overlap is intra-community
        R, _ = to_matrices(small)
        dense = R.matrix.toarray()
        n_hot = round(0.05 * small.n_items)
        tail = dense[:, n_hot:]
        comm = small.communities
        profiles = np.stack([tail[comm == c].sum(axis=0) for c in range(10)])
        profiles /= profiles.sum(axis=1, keepdims=True)
        overlap = profiles @ profiles.T
        off_diag = overlap - np.diag(np.diag(overlap))
        assert np.all(np.diag(overlap) > 3 * off_diag.max())

    def test_config_validation(self):
        with pytest.raises(Exception):
            community_dataset(
                seed=0, n_users=10, n_items=20, n_interactions=400,
                n_social_edges=30, n_communities=4, n_hot=10, niche_size=5,
            )


class TestRoundTrip:
    def test_write_then_load(self, small, tmp_path):
        inter = tmp_path / "interactions.tsv"
        social = tmp_path / "social.tsv"
        write_dataset(small, inter, social)
        R_direct, S_direct = to_matrices(small)
        R = load_interactions(inter, n_users=small.n_users, n_items=small.n_items)
        S = load_social(social, n_users=small.n_users)
        assert (R.matrix != R_direct.matrix).nnz == 0
        assert (S.matrix != S_direct.matrix).nnz == 0
        assert S.raw_edges == len(small.social_edges)


def file_digests(ds, tmp_path):
    """sha256 of write_dataset's interactions and social files."""
    paths = (tmp_path / "interactions.tsv", tmp_path / "social.tsv")
    write_dataset(ds, *paths)
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)


class TestPinnedOutput:
    """The benchmark's data is lastfm_like(0): a change to the generator,
    its fixed knobs included, must show here.  Digests taken under NumPy
    2.4.6, whose Generator streams the files depend on."""

    def test_lastfm_like_seed_0(self, lastfm, tmp_path):
        assert file_digests(lastfm, tmp_path) == (
            "3a853086a385afa3e6e1468058dbc0c16f3afed231b2a9f3b8bd38bf0c7904a9",
            "2116758df6cbe7f29f94cd6fcf3c88aa37e0ddd67f03576ab0e69fd1d8189a87",
        )

    def test_planted_seed_0(self, tmp_path):
        assert file_digests(planted(seed=0), tmp_path) == (
            "a18ef5d88a7d98a3ba888c41009217b7364f4509fb109ce0010a948eda683907",
            "62a6fc41ddc8da35720957863745bf71b02e2231b03dfe9cb456bf3b57c5ab13",
        )
