"""Ranking metrics against brute-force references, plus report plumbing."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.corpus import InteractionMatrix, ItemGroups, partition_items
from cgsorec.errors import ConfigError, DataError
from cgsorec.evaluation import (
    ROW_BLOCK,
    EvalReport,
    RankedLists,
    evaluate_lists,
    frequency_histogram,
    group_metrics,
    ndcg_at_k,
    recall_at_k,
    top_k_rows,
    topk_lists,
)
from cgsorec.pipeline import read_lists, write_lists

from conftest import rand_binary_csr


# ---------------------------------------------------------------------------
# Brute-force references.  Deliberately written as plain Python loops over
# dicts/sets — no shared helpers with the module under test.  The log2 calls
# go through the same numpy kernel so float equality is meaningful; the
# ranking, hit counting, and user exclusion logic is all independent.
# ---------------------------------------------------------------------------

def brute_topk(scores, masked, k):
    candidates = [i for i in range(len(scores)) if i not in set(masked)]
    candidates.sort(key=lambda i: (-scores[i], i))
    return candidates[:k]


def brute_recall(lists, test_sets, k, per_user=False):
    hits, relevant, ratios = 0, 0, []
    for user, items in zip(lists.users.tolist(), lists.items):
        t = test_sets.get(user, set())
        if not t:
            continue
        found = sum(1 for item in list(items[:k]) if item in t)
        hits += found
        relevant += len(t)
        ratios.append(found / len(t))
    return float(np.mean(ratios)) if per_user else hits / relevant


def brute_ndcg(lists, test_sets, k):
    values = []
    for user, items in zip(lists.users.tolist(), lists.items):
        t = test_sets.get(user, set())
        if not t:
            continue
        rec = list(items[:k])
        hit_ranks = [pos + 1 for pos, item in enumerate(rec) if item in t]
        dcg = float(np.sum(1.0 / np.log2(np.array(hit_ranks) + 1))) if hit_ranks else 0.0
        ideal = min(len(t), len(rec))
        idcg = float(np.sum(1.0 / np.log2(np.arange(1, ideal + 1) + 1)))
        values.append(dcg / idcg)
    return float(np.mean(values))


def sets_to_csr(test_sets, m, n):
    mat = sp.lil_matrix((m, n))
    for u, items in test_sets.items():
        for i in items:
            mat[u, i] = 1.0
    return mat.tocsr()


def make_lists(rows, users=None):
    """Lists scored 0 from a (lists × K) array of item ids; users 0..L-1 by default."""
    items = np.asarray(rows, dtype=np.int64)
    users = np.arange(len(items)) if users is None else np.asarray(users)
    return RankedLists(users, items, np.zeros(items.shape))


def one_row(scores, masked, K):
    """(items, scores) of topk_lists on one score row, `masked` ids excluded."""
    masked = [] if masked is None else list(masked)
    mask = sp.csr_matrix(
        (np.ones(len(masked)), masked, [0, len(masked)]), shape=(1, len(scores))
    )
    lists = topk_lists(np.asarray(scores, dtype=np.float64)[None], K, mask=mask)
    return lists.items[0], lists.scores[0]


def loop_topk(scores, mask, K):
    """Reference ranking: one lexsort per row, masked entries at -inf."""
    mask = sp.csr_matrix(scores.shape) if mask is None else sp.csr_matrix(mask)
    items, tops = [], []
    for u in range(scores.shape[0]):
        row = np.asarray(scores[u], dtype=np.float64).copy()
        row[mask.indices[mask.indptr[u] : mask.indptr[u + 1]]] = -np.inf
        order = np.lexsort((np.arange(len(row)), -row))[:K]
        items.append(order)
        tops.append(row[order])
    return items, tops


def assert_same_as_loop(scores, mask, K):
    lists = topk_lists(scores, K, mask=mask)
    items, tops = loop_topk(scores, mask, K)
    assert np.array_equal(lists.users, np.arange(scores.shape[0]))
    assert lists.items.dtype == items[0].dtype
    assert np.array_equal(lists.items, np.array(items))
    # bytes, so 0.0 vs -0.0 and the NaN/-inf positions count too
    assert lists.scores.tobytes() == np.array(tops).tobytes()


class TestRankItems:
    """Single-row rankings through topk_lists."""

    def test_masked_argmax(self):
        items, top = one_row([0.1, 0.9, 0.5], [1], 1)
        assert np.array_equal(items, [2])
        assert top[0] == 0.5

    def test_tie_break_by_id(self):
        items, _ = one_row(np.ones(4), None, 2)
        assert np.array_equal(items, [0, 1])

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            one_row(np.ones(4), [0, 1], 3)

    def test_masked_never_present(self, rng):
        scores = rng.standard_normal(15)
        scores[[2, 7]] = 100.0  # masked items score highest
        items, _ = one_row(scores, [2, 7], 10)
        assert not set(items) & {2, 7}

    def test_matches_full_sort(self, rng):
        for _ in range(20):
            scores = rng.standard_normal(30)
            masked = rng.choice(30, size=4, replace=False)
            items, _ = one_row(scores, masked, 5)
            assert list(items) == brute_topk(scores, masked, 5)

    def test_scores_parallel(self, rng):
        scores = rng.standard_normal(10)
        items, top = one_row(scores, None, 4)
        np.testing.assert_array_equal(top, scores[items])


class TestTopKAgainstLoop:
    """The block ranking equals a per-row lexsort, bit for bit."""

    @pytest.mark.parametrize("K", [1, 3, 10, 40])
    def test_heavy_ties(self, rng, K):
        scores = rng.integers(0, 4, size=(30, 40)).astype(np.float64)
        assert_same_as_loop(scores, None, K)
        assert_same_as_loop(scores, rand_binary_csr(rng, 30, 40, 0.2), min(K, 20))

    def test_signed_zeros_tie(self, rng):
        scores = rng.choice([0.0, -0.0, 1.0, -1.0], size=(20, 16))
        assert_same_as_loop(scores, None, 8)
        items, top = one_row([-0.0, 0.0, -0.0, 0.0], None, 4)
        assert np.array_equal(items, [0, 1, 2, 3])
        assert top.tobytes() == np.array([-0.0, 0.0, -0.0, 0.0]).tobytes()

    def test_duplicate_mask_entries(self, rng):
        scores = rng.integers(0, 3, size=(6, 10)).astype(np.float64)
        cols = [3, 3, 7, 1, 1, 9]  # rows 0, 0, 0, 2, 2, 5
        mask = sp.csr_matrix((np.ones(6), cols, [0, 3, 3, 5, 5, 5, 6]), shape=(6, 10))
        assert mask.nnz == 6  # the duplicates stay stored
        assert_same_as_loop(scores, mask, 8)
        with pytest.raises(ConfigError, match="exceeds 8"):
            topk_lists(scores, 9, mask=mask)

    def test_k_equals_unmasked_count(self, rng):
        scores = rng.integers(0, 3, size=(5, 12)).astype(np.float64)
        mask = sp.csr_matrix(np.tile(np.arange(12) % 3 == 0, (5, 1)))
        assert_same_as_loop(scores, mask, 8)
        lists = topk_lists(scores, 8, mask=mask)
        assert not np.isin(lists.items, [0, 3, 6, 9]).any()

    def test_more_rows_than_one_block(self, rng):
        n_rows = 2 * ROW_BLOCK + 37
        scores = np.round(rng.standard_normal((n_rows, 50)), 1)
        mask = rand_binary_csr(rng, n_rows, 50, 0.1)
        assert_same_as_loop(scores, mask, 10)

    def test_infinities_and_nan_rank_like_lexsort(self):
        scores = np.array(
            [[np.nan, 1.0, np.inf, -np.inf, 1.0, np.nan],
             [np.nan, np.nan, np.nan, 0.5, np.nan, -np.inf]]
        )
        assert_same_as_loop(scores, sp.csr_matrix(([1.0], [4], [0, 1, 1]), shape=(2, 6)), 5)
        assert_same_as_loop(scores, None, 6)

    def test_k_zero_and_empty_rows(self, rng):
        ids, top = top_k_rows(rng.standard_normal((3, 5)), 0)
        assert ids.shape == top.shape == (3, 0)
        ids, top = top_k_rows(np.empty((0, 5)), 2)
        assert ids.shape == (0, 2)


class TestRecall:
    def test_full_hit(self):
        lists = make_lists([[1, 2]])
        test = sets_to_csr({0: {1}}, 1, 4)
        assert recall_at_k(lists, test, 2) == 1.0

    def test_hand_count(self):
        # user 0: one of two test items recommended; user 1: zero of one
        lists = make_lists([[0, 1], [0, 1]])
        test = sets_to_csr({0: {1, 2}, 1: {3}}, 2, 5)
        assert recall_at_k(lists, test, 2) == pytest.approx(1 / 3)

    def test_no_hits(self):
        lists = make_lists([[0], [0]])
        test = sets_to_csr({0: {1}, 1: {2}}, 2, 4)
        assert recall_at_k(lists, test, 1) == 0.0

    def test_all_empty_raises(self):
        lists = make_lists([[0]])
        test = sp.csr_matrix((1, 4))
        with pytest.raises(DataError):
            recall_at_k(lists, test, 1)

    def test_empty_rows_excluded(self):
        lists = make_lists([[1, 2], [1, 2]])
        # user 1 has no test items; result must equal the single-user value
        test = sets_to_csr({0: {1}}, 2, 4)
        assert recall_at_k(lists, test, 2) == 1.0

    def test_per_user_mean(self):
        lists = make_lists([[0, 1], [0, 1]])
        test = sets_to_csr({0: {1, 2}, 1: {3}}, 2, 5)
        assert recall_at_k(lists, test, 2, per_user=True) == pytest.approx(0.25)

    def test_monotone_in_k(self, rng):
        scores = rng.standard_normal((8, 15))
        lists = topk_lists(scores, 10)
        test_sets = {u: set(rng.choice(15, 3, replace=False).tolist()) for u in range(8)}
        test = sets_to_csr(test_sets, 8, 15)
        values = [recall_at_k(lists, test, k) for k in range(1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestNdcg:
    def test_hit_at_rank_one(self):
        lists = make_lists([[3, 0, 1, 2, 4]])
        test = sets_to_csr({0: {3}}, 1, 6)
        assert ndcg_at_k(lists, test, 5) == 1.0

    def test_hit_at_rank_three(self):
        lists = make_lists([[0, 1, 5, 2, 4]])
        test = sets_to_csr({0: {5}}, 1, 6)
        # DCG = 1/log2(4), IDCG = 1/log2(2)
        assert ndcg_at_k(lists, test, 5) == pytest.approx(0.5)

    def test_no_hits_zero(self):
        lists = make_lists([[0, 1]])
        test = sets_to_csr({0: {3}}, 1, 4)
        assert ndcg_at_k(lists, test, 2) == 0.0

    def test_all_empty_raises(self):
        lists = make_lists([[0]])
        with pytest.raises(DataError):
            ndcg_at_k(lists, sp.csr_matrix((1, 4)), 1)

    def test_one_iff_ideal(self, rng):
        # test items at the top ranks -> exactly 1.0
        lists = make_lists([[2, 5, 0, 1], [4, 3, 0, 1]])
        test = sets_to_csr({0: {2, 5}, 1: {4}}, 2, 6)
        assert ndcg_at_k(lists, test, 4) == 1.0
        # swap one user's hit off the top -> strictly below 1.0
        lists_off = make_lists([[2, 0, 5, 1], [4, 3, 0, 1]])
        assert ndcg_at_k(lists_off, test, 4) < 1.0

    def test_bounds(self, rng):
        for _ in range(10):
            scores = rng.standard_normal((6, 12))
            lists = topk_lists(scores, 5)
            test_sets = {
                u: set(rng.choice(12, int(rng.integers(1, 4)), replace=False).tolist())
                for u in range(6)
            }
            v = ndcg_at_k(lists, sets_to_csr(test_sets, 6, 12), 5)
            assert 0.0 <= v <= 1.0


class TestBruteForceAgreement:
    def test_thirty_random_fixtures(self, rng):
        for _ in range(30):
            scores = rng.standard_normal((10, 20))
            train_sets = {
                u: set(rng.choice(20, int(rng.integers(1, 6)), replace=False).tolist())
                for u in range(10)
            }
            test_sets = {}
            for u in range(10):
                pool = [i for i in range(20) if i not in train_sets[u]]
                size = int(rng.integers(0, 4)) if u else 2  # user 0 always nonempty
                test_sets[u] = set(rng.choice(pool, size, replace=False).tolist())
            train = sets_to_csr(train_sets, 10, 20)
            test = sets_to_csr(test_sets, 10, 20)
            lists = topk_lists(scores, 5, mask=train)
            for u in range(10):
                assert list(lists.items[u]) == brute_topk(
                    scores[u], train_sets[u], 5
                )
            for k in (1, 3, 5):
                assert recall_at_k(lists, test, k) == brute_recall(lists, test_sets, k)
                assert ndcg_at_k(lists, test, k) == brute_ndcg(lists, test_sets, k)

    def random_case(self, rng, n_users, n_items, K, test_size):
        """Lists of K random distinct items per user and random test sets."""
        lists = make_lists([rng.choice(n_items, K, replace=False) for _ in range(n_users)])
        test_sets = {
            u: set(rng.choice(n_items, int(rng.integers(*test_size)), replace=False).tolist())
            for u in range(n_users)
        }
        return lists, test_sets, sets_to_csr(test_sets, n_users, n_items)

    def test_per_group_metrics(self, rng):
        groups = ItemGroups(
            hot=np.array([0, 1]), tail=np.array([2, 3, 4, 5]), hot_fraction=1 / 3, n_items=6
        )
        for _ in range(30):
            lists, test_sets, test = self.random_case(rng, 12, 6, 4, (0, 4))
            per_group, _ = group_metrics(lists, test, groups, [1, 2, 4])
            for name, members in (("hot", groups.hot), ("tail", groups.tail)):
                restricted = {u: t & set(members.tolist()) for u, t in test_sets.items()}
                if not any(restricted.values()):
                    assert name not in per_group
                    continue
                for k in (1, 2, 4):
                    assert per_group[name]["recall"][k] == brute_recall(lists, restricted, k)
                    assert per_group[name]["ndcg"][k] == brute_ndcg(lists, restricted, k)

    def test_per_user_recall(self, rng):
        for _ in range(30):
            lists, test_sets, test = self.random_case(rng, 10, 20, 5, (0, 4))
            test_sets[0] = test_sets[0] or {int(lists.items[0, 0])}
            test = sets_to_csr(test_sets, 10, 20)
            for k in (1, 3, 5, None):
                got = recall_at_k(lists, test, k, per_user=True)
                assert got == brute_recall(lists, test_sets, k, per_user=True)

    def test_test_users_missing_from_lists(self, rng):
        for _ in range(30):
            lists, test_sets, test = self.random_case(rng, 15, 20, 5, (1, 5))
            rows = np.flatnonzero(rng.random(len(lists.users)) < 0.5)
            rows = rows if len(rows) else [0]
            kept = RankedLists(lists.users[rows], lists.items[rows], lists.scores[rows])
            for k in (1, 3, 5):
                assert recall_at_k(kept, test, k) == brute_recall(kept, test_sets, k)
                assert ndcg_at_k(kept, test, k) == brute_ndcg(kept, test_sets, k)

    def test_k20_with_eight_or_more_hits(self, rng):
        # A sequential cumsum and np.sum group 8 or more addends differently,
        # so DCG may differ in the last bit once a user holds 8+ hits.  Here
        # 4 of the 90 NDCG values differ, by at most 4.2e-16 relative (rtol
        # is 1e-14); recall is a ratio of integers and stays exact.  Every
        # other case in this class has fewer than 8 hits and is held exact.
        for _ in range(30):
            lists, test_sets, test = self.random_case(rng, 20, 30, 20, (8, 20))
            found = [set(items) & test_sets[u] for u, items in enumerate(lists.items.tolist())]
            assert max(map(len, found)) >= 8
            for k in (5, 10, 20):
                assert recall_at_k(lists, test, k) == brute_recall(lists, test_sets, k)
                np.testing.assert_allclose(
                    ndcg_at_k(lists, test, k), brute_ndcg(lists, test_sets, k), rtol=1e-14, atol=0
                )


class TestFrequencyHistogram:
    def test_counting_example(self):
        # item 0 is most popular (hot); recommended to both users
        train = sets_to_csr({0: {0}, 1: {0, 1}, 2: {0, 2}}, 3, 4)
        groups = ItemGroups(
            hot=np.array([0]), tail=np.array([1, 2, 3]),
            hot_fraction=0.25, n_items=4,
        )
        lists = make_lists([[0, 1], [0, 2]])
        hist = frequency_histogram(lists, train, groups)
        assert hist["hot_mean_freq"] == 2.0
        assert hist["tail_mean_freq"] == pytest.approx(2 / 3)
        assert hist["total_count"] == 4
        # ascending popularity with id tie-break: item 3 (0), 1 (1), 2 (1), 0 (3)
        d = hist["decile_mean_freq"]
        assert [d[i] for i in range(1, 11)] == [0.0, 1.0, 1.0, 2.0] + [0.0] * 6

    def test_conservation(self, rng):
        train = rand_binary_csr(rng, 12, 9, 0.3)
        groups = partition_items(InteractionMatrix(train), 0.2)
        lists = topk_lists(rng.standard_normal((12, 9)), 4)
        hist = frequency_histogram(lists, train, groups)
        assert hist["total_count"] == 4 * 12

    def test_uniform_lists_match_multinomial(self, rng):
        # every item equally likely in each top-5: mean count per item is
        # U*K/n with binomial sd; all bucket means must sit within 3 sigma
        U, n, K = 2000, 20, 5
        lists = make_lists([rng.choice(n, K, replace=False).tolist() for _ in range(U)])
        train = rand_binary_csr(rng, 50, n, 0.3)
        groups = partition_items(InteractionMatrix(train), 0.2)
        hist = frequency_histogram(lists, train, groups)
        p = K / n
        expected = U * p
        per_item_sd = np.sqrt(U * p * (1 - p))
        for i in range(1, 11):
            sd = per_item_sd / np.sqrt(2)  # buckets of 2 items
            assert abs(hist["decile_mean_freq"][i] - expected) < 3 * sd
        assert abs(hist["hot_mean_freq"] - expected) < 3 * per_item_sd / 2
        assert hist["total_count"] == U * K

    def test_empty_lists_rejected(self, rng):
        train = rand_binary_csr(rng, 3, 4, 0.5)
        groups = partition_items(InteractionMatrix(train), 0.25)
        with pytest.raises(DataError):
            frequency_histogram(make_lists(np.empty((0, 0))), train, groups)


class TestGroupMetrics:
    def groups(self):
        return ItemGroups(
            hot=np.array([0, 1]), tail=np.array([2, 3, 4, 5]),
            hot_fraction=1 / 3, n_items=6,
        )

    def test_all_hot_equals_overall(self):
        lists = make_lists([[0, 2, 4], [1, 3, 5]])
        test = sets_to_csr({0: {0}, 1: {1}}, 2, 6)
        per_group, notices = group_metrics(lists, test, self.groups(), [3])
        assert "tail" not in per_group
        assert any("tail" in n and "omitted" in n for n in notices)
        assert per_group["hot"]["recall"][3] == recall_at_k(lists, test, 3)
        assert per_group["hot"]["ndcg"][3] == ndcg_at_k(lists, test, 3)

    def test_hand_counts(self):
        lists = make_lists([[0, 2, 4], [1, 3, 5]])
        test = sets_to_csr({0: {0, 2}, 1: {3, 4}}, 2, 6)
        per_group, notices = group_metrics(lists, test, self.groups(), [3])
        assert notices == []
        # hot: only user 0 has hot test items ({0}, hit at rank 1)
        assert per_group["hot"]["recall"][3] == 1.0
        assert per_group["hot"]["ndcg"][3] == 1.0
        # tail: user 0 hits {2} at rank 2 of 1; user 1 hits {3} at rank 2 of 2
        assert per_group["tail"]["recall"][3] == pytest.approx(2 / 3)
        log2 = np.log2
        u0 = (1 / log2(3)) / (1 / log2(2))
        u1 = (1 / log2(3)) / (1 / log2(2) + 1 / log2(3))
        assert per_group["tail"]["ndcg"][3] == pytest.approx((u0 + u1) / 2)

    def test_listed_users_outside_group_omit_it(self):
        # user 0 holds the only hot test item but has no list
        lists = make_lists([[1, 3, 5]], users=[1])
        test = sets_to_csr({0: {0}, 1: {3}}, 2, 6)
        per_group, notices = group_metrics(lists, test, self.groups(), [3])
        assert list(per_group) == ["tail"]
        assert notices == ["group 'hot' has no test interactions; metrics omitted"]
        assert per_group["tail"]["recall"][3] == 1.0

    def test_empty_tail_group_notice(self):
        lists = make_lists([[0, 1]])
        test = sets_to_csr({0: {0}}, 1, 6)
        per_group, notices = group_metrics(lists, test, self.groups(), [2])
        assert list(per_group) == ["hot"]
        assert len(notices) == 1


def lists_file(path, rows):
    """A lists file holding `rows` of (user, item ids), each item scored 0."""
    path.write_text("".join(f"{u}\t{i}\t0.0\n" for u, items in rows for i in items))
    return path


class TestListsFile:
    """read_lists(write_lists(lists)) gives the lists back bit for bit."""

    def test_round_trip_is_bitwise(self, tmp_path, rng):
        scores = rng.standard_normal((7, 9))
        scores[0, :4] = [-0.0, np.inf, -np.inf, 5e-324]
        scores[1, :3] = [0.0, -5e-324, np.finfo(np.float64).tiny / 3]
        lists = topk_lists(scores, 9)  # every score is listed
        write_lists(lists, tmp_path / "l.tsv")
        back = read_lists(tmp_path / "l.tsv", 7, 9)
        for name in ("users", "items", "scores"):
            got, want = getattr(back, name), getattr(lists, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert -np.inf in back.scores and 5e-324 in back.scores

    def test_groups_by_user_in_line_order(self, tmp_path):
        path = lists_file(tmp_path / "l.tsv", [(2, [4, 1]), (0, [3, 5])])
        lists = read_lists(path, 3, 6)
        assert lists.users.tolist() == [0, 2]
        assert lists.items.tolist() == [[3, 5], [4, 1]]

    def test_id_beyond_64_bits(self, tmp_path):
        rows = [(0, [1, 2 ** 64])]
        with pytest.raises(DataError, match="an id does not fit in 64 bits"):
            read_lists(lists_file(tmp_path / "l.tsv", rows), 2, 6)

    def test_empty_file(self, tmp_path):
        lists = read_lists(lists_file(tmp_path / "l.tsv", []), 3, 6)
        assert lists.users.shape == (0,) and lists.items.shape == lists.scores.shape == (0, 0)


class TestListValidation:
    """Lists are checked once, when a lists file is read, before any scoring."""

    def read(self, tmp_path, rows):
        return read_lists(lists_file(tmp_path / "l.tsv", rows), 2, 6)

    def test_item_listed_twice(self, tmp_path):
        with pytest.raises(DataError, match="user 1: an item is listed twice"):
            self.read(tmp_path, [(0, [1, 2]), (1, [2, 2])])

    def test_unequal_lengths(self, tmp_path):
        with pytest.raises(DataError, match="user 1: list length differs"):
            self.read(tmp_path, [(0, [1, 2, 3]), (1, [2, 0])])
        with pytest.raises(DataError, match="user 1: list length differs from the first list's 2"):
            self.read(tmp_path, [(1, [2, 0, 3]), (0, [1, 2])])

    def test_ids_out_of_range(self, tmp_path):
        with pytest.raises(DataError, match="user 1: item id outside 0..5"):
            self.read(tmp_path, [(0, [1, 2]), (1, [2, 6])])
        with pytest.raises(DataError, match="user 0: item id outside"):
            self.read(tmp_path, [(0, [-1, 2]), (1, [2, 3])])
        with pytest.raises(DataError, match="user 2: user id outside 0..1"):
            self.read(tmp_path, [(0, [1, 2]), (1, [2, 3]), (2, [4, 5])])


class TestEvalReport:
    def build_report(self, rng):
        scores = rng.standard_normal((6, 12))
        train = rand_binary_csr(rng, 6, 12, 0.2)
        test_sets = {u: {int(11 - u)} for u in range(6)}
        test = sets_to_csr(test_sets, 6, 12)
        groups = partition_items(InteractionMatrix(train), 0.25)
        return evaluate_lists(
            topk_lists(scores, 5, mask=train), test, train, groups, ks=[1, 5],
            config_echo={"seed": 7, "variant": "test"},
        )

    def test_json_round_trip(self, rng):
        report = self.build_report(rng)
        text = report.to_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert set(payload) == {
            "recall", "ndcg", "per_group", "freq_hist", "notices", "config",
        }
        assert set(payload["recall"]) == {"1", "5"}
        assert payload["config"] == {"seed": 7, "variant": "test"}
        # sorted keys: serialization is reproducible
        assert text == report.to_json()

    def test_metric_ranges(self, rng):
        report = self.build_report(rng)
        for k, v in {**report.recall, **report.ndcg}.items():
            assert 0.0 <= v <= 1.0
        assert report.freq_hist["total_count"] == 5 * 6

    def test_lists_shorter_than_k(self, rng):
        lists = make_lists([[0, 1]])
        test = sets_to_csr({0: {0}}, 1, 6)
        train = sp.csr_matrix((1, 6))
        groups = partition_items(InteractionMatrix(sets_to_csr({0: {0}}, 1, 6)), 0.25)
        with pytest.raises(ConfigError):
            evaluate_lists(lists, test, train, groups, ks=[5])

    def test_mask_respected_end_to_end(self, rng):
        scores = rng.standard_normal((5, 10))
        train = rand_binary_csr(rng, 5, 10, 0.3)
        lists = topk_lists(scores, 4, mask=train)
        for u, items in enumerate(lists.items.tolist()):
            seen = set(train.indices[train.indptr[u]:train.indptr[u + 1]].tolist())
            assert not set(items) & seen
