"""Ranking metrics against brute-force references, plus report plumbing."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.corpus import InteractionMatrix, partition_items
from cgsorec.errors import ConfigError, DataError
from cgsorec.evaluation import (
    ROW_BLOCK,
    EvalReport,
    RankedLists,
    blend,
    evaluate_lists,
    frequency_histogram,
    group_metrics,
    ndcg_at_k,
    recall_at_k,
    top_k_grid,
    top_k_rows,
    topk_lists,
)
from cgsorec.pipeline import read_lists, write_lists

from conftest import decimal, digits, line_loop, rand_binary_csr


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


def brute_recall(lists, test_sets, k):
    hits, relevant = 0, 0
    for user, items in zip(lists.users.tolist(), lists.items):
        t = test_sets.get(user, set())
        if not t:
            continue
        found = sum(1 for item in list(items[:k]) if item in t)
        hits += found
        relevant += len(t)
    return hits / relevant


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
    """Reference ranking: one lexsort per row by (masked, -score, id)."""
    mask = sp.csr_matrix(scores.shape) if mask is None else sp.csr_matrix(mask)
    items, tops = [], []
    for u in range(scores.shape[0]):
        row = np.asarray(scores[u], dtype=np.float64)
        masked = np.zeros(len(row), dtype=bool)
        masked[mask.indices[mask.indptr[u] : mask.indptr[u + 1]]] = True
        order = np.lexsort((np.arange(len(row)), -row, masked))[:K]
        items.append(order)
        tops.append(row[order])
    return items, tops


def assert_same_as_loop(scores, mask, K, other=None, w=0.0):
    lists = topk_lists(scores, K, mask=mask, other=other, w=w)
    items, tops = loop_topk(blend(scores, other, w), mask, K)
    assert np.array_equal(lists.users, np.arange(scores.shape[0]))
    assert lists.items.dtype == items[0].dtype
    assert np.array_equal(lists.items, np.array(items))
    # bytes, so 0.0 vs -0.0 and the NaN/-inf positions count too
    assert lists.scores.tobytes() == np.array(tops).tobytes()
    if mask is not None:
        m = sp.coo_matrix(mask)
        n = scores.shape[1]
        listed = lists.users[:, None] * n + lists.items
        assert not np.isin(listed, m.row * n + m.col).any(), "a masked id is listed"


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

    def test_masked_id_never_listed_at_minus_inf(self):
        # item 1 is masked; the unmasked -inf at item 2 ranks before it
        mask = sp.csr_matrix(([1.0], [1], [0, 1]), shape=(1, 3))
        ids, top = top_k_rows(np.array([[5.0, -np.inf, -np.inf]]), 2, mask)
        assert np.array_equal(ids, [[0, 2]])
        assert np.array_equal(top, [[5.0, -np.inf]])
        # masked entries also rank after NaN
        ids, _ = top_k_rows(np.array([[np.nan, 9.0, 1.0]]), 2, mask)
        assert np.array_equal(ids, [[2, 0]])

    def fast_and_fallback_rows(self, n_rows):
        """Rows cycling through: distinct values (the argpartition path),
        ties straddling the k-th value, a NaN k-th value and a k-th value
        of +inf from masking (the lexsort path); k = 3."""
        patterns = np.array([
            [0.3, 0.9, 0.1, 0.7, 0.5, 0.2],
            [1.0, 0.5, 0.5, 0.5, 0.5, 0.0],
            [0.4, np.nan, 0.8, np.nan, np.nan, np.nan],
            [-np.inf, 0.6, 0.9, -np.inf, 0.7, 0.8],
        ])
        masked_cols = [[], [5], [0], [2, 4, 5]]
        scores = patterns[np.arange(n_rows) % 4]
        cols = [masked_cols[u % 4] for u in range(n_rows)]
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        mask = sp.csr_matrix(
            (np.ones(indptr[-1]), np.concatenate(cols), indptr), shape=scores.shape
        )
        return scores, mask

    def test_fast_and_fallback_rows_in_one_block(self):
        scores, mask = self.fast_and_fallback_rows(8)
        assert_same_as_loop(scores, mask, 3)
        ids, _ = top_k_rows(scores, 3, mask)
        assert np.array_equal(ids[:4], [[1, 3, 4], [0, 1, 2], [2, 1, 3], [1, 0, 3]])

    def test_partial_last_block(self):
        scores, mask = self.fast_and_fallback_rows(ROW_BLOCK + 7)
        assert_same_as_loop(scores, mask, 3)

    def test_k_equals_each_rows_free_count(self, rng):
        # rows with 3, 6 and 9 masked ids, ranked at their own free count;
        # row 1's unmasked NaN is its k-th value
        scores = np.round(rng.standard_normal((3, 12)), 1)
        scores[1, 4] = np.nan
        for u, n_masked in enumerate((3, 6, 9)):
            cols = rng.choice(np.delete(np.arange(12), 4), n_masked, replace=False)
            mask = sp.csr_matrix((np.ones(n_masked), cols, [0, n_masked]), shape=(1, 12))
            assert_same_as_loop(scores[u : u + 1], mask, 12 - n_masked)

    @pytest.mark.parametrize("w", [0.0, 0.05, 0.35, 1.0])
    def test_blend_inside_the_block(self, rng, w):
        n_rows = ROW_BLOCK + 19
        a = rng.choice([0.0, -0.0, 0.25, 0.5, np.inf, -np.inf], size=(n_rows, 30))
        b = np.full((n_rows, 30), np.nan) if w == 0.0 else np.round(rng.random((n_rows, 30)), 1)
        mask = rand_binary_csr(rng, n_rows, 30, 0.2)
        with np.errstate(invalid="ignore"):  # 0 * inf in the blend
            fused = topk_lists(a, 10, mask=mask, other=b, w=w)
            plain = topk_lists(blend(a, b, w), 10, mask=mask)
            assert_same_as_loop(a, mask, 10, other=b, w=w)
        assert np.array_equal(fused.items, plain.items)
        assert fused.scores.tobytes() == plain.scores.tobytes()

    def test_k_zero_and_empty_rows(self, rng):
        ids, top = top_k_rows(rng.standard_normal((3, 5)), 0)
        assert ids.shape == top.shape == (3, 0)
        ids, top = top_k_rows(np.empty((0, 5)), 2)
        assert ids.shape == (0, 2)


GRIDS = [[0.0, 1 / 3, 0.99, 1.0], [0.99, 0.0, 1 / 3, 1 / 3], [0.0, 1.0], [1 / 3], [0.0], [1.0]]


def assert_grid_is_rows(a, b, ws, k, mask):
    """top_k_grid's entry j is top_k_rows(a, k, mask, b, ws[j]), bit for bit."""
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf at w = 1; huge scores
        grid = top_k_grid(a, b, ws, k, mask)
        assert len(grid) == len(ws)
        for w, (ids, top) in zip(ws, grid):
            want_ids, want_top = top_k_rows(a, k, mask, b, w)
            assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids), w
            assert np.array_equal(top.view(np.int64), want_top.view(np.int64)), w


def messy_mask(rng, n_rows, n, density):
    """A random CSR mask with unsorted indices and its first entry twice."""
    rows, cols = np.nonzero(rng.random((n_rows, n)) < density)
    rows, cols = np.concatenate((rows, rows[:1])), np.concatenate((cols, cols[:1]))
    order = np.lexsort((rng.random(len(rows)), rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return sp.csr_matrix((np.ones(len(rows)), cols[order], indptr), shape=(n_rows, n))


def free_counts(mask, n):
    canonical = mask.copy()
    canonical.sum_duplicates()
    return n - np.diff(canonical.indptr)


class TestTopKGrid:
    """One pass over a w grid equals one top_k_rows call per value."""

    @pytest.mark.parametrize("ws", GRIDS)
    def test_integer_ties_signed_zeros_and_non_finite_rows(self, rng, ws):
        n_rows, n = 2 * ROW_BLOCK + 188, 40
        a = rng.integers(-3, 4, size=(n_rows, n)).astype(np.float64)
        b = rng.integers(-3, 4, size=(n_rows, n)).astype(np.float64)
        a[a == 0] = rng.choice([0.0, -0.0], size=np.count_nonzero(a == 0))
        b[:, ::3] = -0.0
        # NaN in the first block, +inf in the second; the third is finite
        a[5, 7], b[300, 2] = np.nan, np.inf
        mask = messy_mask(rng, n_rows, n, 0.2)
        assert not mask.has_canonical_format
        for k in (1, 10, int(free_counts(mask, n).min())):
            assert_grid_is_rows(a, b, ws, k, mask)

    def test_random_cases(self, rng):
        for case in range(700):
            n_rows, n = int(rng.integers(1, 12)), int(rng.integers(1, 15))
            scale = rng.choice([1.0, 1e-3, 1e300, 1e307, 1e-320])
            a = scale * (rng.integers(-2, 3, size=(n_rows, n)) / rng.choice([1.0, 3.0]))
            b = scale * (rng.integers(-2, 3, size=(n_rows, n)) / rng.choice([1.0, 7.0]))
            a[rng.random(a.shape) < 0.1] = -0.0
            if case % 5 == 0:
                b[rng.integers(n_rows), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
            mask = messy_mask(rng, n_rows, n, 0.3) if case % 2 else None
            free = n if mask is None else int(free_counts(mask, n).min())
            k = int(rng.integers(0, free + 1))
            ws = GRIDS[case % len(GRIDS)]
            assert_grid_is_rows(a, b, ws, k, mask)
            with pytest.raises(ConfigError) as grid_err:
                top_k_grid(a, b, ws, free + 1, mask)
            with pytest.raises(ConfigError) as rows_err:
                top_k_rows(a, free + 1, mask, b, ws[0])
            assert str(grid_err.value) == str(rows_err.value)

    def test_neighbours_that_the_blend_rounds_into_a_tie(self, rng):
        # each row's item 1 is one unit in the last place above item 0, so
        # item 0's bound is below item 1's; at w = 0.6 the blend often
        # rounds the two into a tie, which the lower id wins
        normal = rng.uniform(1.3, 2.0, 600)
        subnormal = rng.integers(1, 40, 600) * 2.0**-1074
        for low in (normal, subnormal):
            a = np.column_stack((low, np.nextafter(low, np.inf)))
            b = np.zeros_like(a)
            assert (top_k_rows(a, 1, None, b, 0.6)[0] == 0).any()
            assert_grid_is_rows(a, b, [0.0, 0.6], 1, None)

    def test_without_b_every_value_ranks_a(self, rng):
        a = rng.integers(0, 3, size=(9, 8)).astype(np.float64)
        for ids, top in top_k_grid(a, None, GRIDS[0], 4):
            want_ids, want_top = top_k_rows(a, 4)
            assert np.array_equal(ids, want_ids) and top.tobytes() == want_top.tobytes()

    def test_a_longer_list_cut_is_the_shorter_list(self, rng):
        # a sweep ranks values that share chains once, at their largest K,
        # and cuts each value's lists to its own K
        for case in range(400):
            n_rows, n = int(rng.integers(1, 12)), int(rng.integers(1, 15))
            a = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(n_rows, n))
            b = np.round(rng.standard_normal((n_rows, n)), 1)
            if case % 3 == 0:
                a[rng.integers(n_rows), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
            mask = messy_mask(rng, n_rows, n, 0.3) if case % 2 else None
            free = n if mask is None else int(free_counts(mask, n).min())
            K = int(rng.integers(0, free + 1))
            k = int(rng.integers(0, K + 1))
            ws = GRIDS[case % len(GRIDS)]
            with np.errstate(invalid="ignore"):  # 0 * inf at w = 1
                longer = [top_k_rows(a, K, mask, b, ws[0]), *top_k_grid(a, b, ws, K, mask)]
                shorter = [top_k_rows(a, k, mask, b, ws[0]), *top_k_grid(a, b, ws, k, mask)]
            for (ids, top), (want_ids, want_top) in zip(longer, shorter):
                assert np.array_equal(ids[:, :k], want_ids)
                assert top[:, :k].tobytes() == want_top.tobytes()

    def test_topk_lists_takes_a_grid(self, rng):
        a, b = rng.random((20, 12)), rng.random((20, 12))
        mask = rand_binary_csr(rng, 20, 12, 0.2)
        grid = topk_lists(a, 5, mask=mask, other=b, w=GRIDS[0])
        assert len(grid) == len(GRIDS[0])
        for w, lists in zip(GRIDS[0], grid):
            one = topk_lists(a, 5, mask=mask, other=b, w=w)
            assert np.array_equal(lists.users, one.users)
            assert np.array_equal(lists.items, one.items)
            assert lists.scores.tobytes() == one.scores.tobytes()


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
        hot = np.arange(6) < 2
        for _ in range(30):
            lists, test_sets, test = self.random_case(rng, 12, 6, 4, (0, 4))
            per_group, _ = group_metrics(lists, test, hot, [1, 2, 4])
            for name, members in (("hot", {0, 1}), ("tail", {2, 3, 4, 5})):
                restricted = {u: t & members for u, t in test_sets.items()}
                if not any(restricted.values()):
                    assert name not in per_group
                    continue
                for k in (1, 2, 4):
                    assert per_group[name]["recall"][k] == brute_recall(lists, restricted, k)
                    assert per_group[name]["ndcg"][k] == brute_ndcg(lists, restricted, k)

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
        hot = np.array([True, False, False, False])
        lists = make_lists([[0, 1], [0, 2]])
        hist = frequency_histogram(lists, train, hot)
        assert hist["hot_mean_freq"] == 2.0
        assert hist["tail_mean_freq"] == pytest.approx(2 / 3)
        assert hist["total_count"] == 4
        # ascending popularity with id tie-break: item 3 (0), 1 (1), 2 (1), 0 (3)
        d = hist["decile_mean_freq"]
        assert [d[i] for i in range(1, 11)] == [0.0, 1.0, 1.0, 2.0] + [0.0] * 6

    def test_conservation(self, rng):
        train = rand_binary_csr(rng, 12, 9, 0.3)
        hot = partition_items(InteractionMatrix(train), 0.2)
        lists = topk_lists(rng.standard_normal((12, 9)), 4)
        hist = frequency_histogram(lists, train, hot)
        assert hist["total_count"] == 4 * 12

    def test_uniform_lists_match_multinomial(self, rng):
        # every item equally likely in each top-5: mean count per item is
        # U*K/n with binomial sd; all bucket means must sit within 3 sigma
        U, n, K = 2000, 20, 5
        lists = make_lists([rng.choice(n, K, replace=False).tolist() for _ in range(U)])
        train = rand_binary_csr(rng, 50, n, 0.3)
        hot = partition_items(InteractionMatrix(train), 0.2)
        hist = frequency_histogram(lists, train, hot)
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
        hot = partition_items(InteractionMatrix(train), 0.25)
        with pytest.raises(DataError):
            frequency_histogram(make_lists(np.empty((0, 0))), train, hot)


class TestGroupMetrics:
    hot = np.arange(6) < 2  # items 0 and 1 are hot, 2..5 tail

    def test_all_hot_equals_overall(self):
        lists = make_lists([[0, 2, 4], [1, 3, 5]])
        test = sets_to_csr({0: {0}, 1: {1}}, 2, 6)
        per_group, notices = group_metrics(lists, test, self.hot, [3])
        assert "tail" not in per_group
        assert any("tail" in n and "omitted" in n for n in notices)
        assert per_group["hot"]["recall"][3] == recall_at_k(lists, test, 3)
        assert per_group["hot"]["ndcg"][3] == ndcg_at_k(lists, test, 3)

    def test_hand_counts(self):
        lists = make_lists([[0, 2, 4], [1, 3, 5]])
        test = sets_to_csr({0: {0, 2}, 1: {3, 4}}, 2, 6)
        per_group, notices = group_metrics(lists, test, self.hot, [3])
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
        per_group, notices = group_metrics(lists, test, self.hot, [3])
        assert list(per_group) == ["tail"]
        assert notices == ["group 'hot' has no test interactions; metrics omitted"]
        assert per_group["tail"]["recall"][3] == 1.0

    def test_empty_tail_group_notice(self):
        lists = make_lists([[0, 1]])
        test = sets_to_csr({0: {0}}, 1, 6)
        per_group, notices = group_metrics(lists, test, self.hot, [2])
        assert list(per_group) == ["hot"]
        assert len(notices) == 1


class TestCanonicalTestRows:
    """Every metric reads the test rows in canonical form, so an entry
    stored twice counts once and the stored order does not matter."""

    def test_entry_stored_twice_counts_once(self):
        lists = make_lists([[1, 3, 5]])
        twice = sp.csr_matrix(([1.0, 1.0, 1.0], [2, 1, 2], [0, 3]), shape=(1, 6))
        # items 1 and 2 are relevant and 1 is listed: 1/2, not 1/3
        assert recall_at_k(lists, twice, 3) == 0.5

    @pytest.mark.parametrize("seed", range(3))
    def test_every_metric_equals_the_canonical_forms(self, seed):
        rng = np.random.default_rng(seed)
        n_users, n_items, K = 40, 30, 8
        canonical = rand_binary_csr(rng, n_users, n_items, 0.2)
        # a third of the entries stored twice, each row's ids shuffled
        coo = canonical.tocoo()
        twice = rng.random(coo.nnz) < 1 / 3
        rows = np.concatenate((coo.row, coo.row[twice]))
        cols = np.concatenate((coo.col, coo.col[twice]))
        order = np.lexsort((rng.random(len(rows)), rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_users))))
        messy = sp.csr_matrix((np.ones(len(rows)), cols[order], indptr), shape=canonical.shape)
        assert not messy.has_canonical_format
        lists = make_lists([rng.permutation(n_items)[:K] for _ in range(n_users)])
        hot = np.arange(n_items) < 6
        for k in (1, 5, None):
            assert recall_at_k(lists, messy, k) == recall_at_k(lists, canonical, k)
            assert ndcg_at_k(lists, messy, k) == ndcg_at_k(lists, canonical, k)
        ks = [1, 5, K]
        assert group_metrics(lists, messy, hot, ks) == group_metrics(lists, canonical, hot, ks)
        report = evaluate_lists(lists, messy, canonical, hot, ks).to_json()
        assert report == evaluate_lists(lists, canonical, canonical, hot, ks).to_json()


def score(field: bytes) -> float:
    """A field parser for a score as repr(float) writes it; it raises
    ValueError on any other field."""
    if field in (b"nan", b"inf", b"-inf"):
        return float(field)
    mantissa, e, exponent = field.partition(b"e")
    if e and not (exponent[:1] in (b"+", b"-") and exponent[1:].isdigit()):
        raise ValueError(field)
    decimal(mantissa)  # refuses what is not -?digits[.digits]
    return float(field)


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

    def test_extreme_scores_round_trip_through_the_array_pass(self, tmp_path):
        extremes = [5e-324, -0.0, 1 / 3, 1.7976931348623157e308, -5e-324, 0.1, 1e-5, 1e16]
        lists = RankedLists(
            np.array([0, 3]), np.array([[4, 1, 0, 2], [2, 3, 1, 0]]),
            np.array(extremes, dtype=np.float64).reshape(2, 4),
        )
        write_lists(lists, tmp_path / "l.tsv")
        back = read_lists(tmp_path / "l.tsv", 4, 5)
        for name in ("users", "items", "scores"):
            got, want = getattr(back, name), getattr(lists, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_array_pass_matches_line_loop(self, tmp_path):
        """Random lists files, clean or with one bad token or line: the
        lists, or the DataError, of the test's own line loop."""
        rng = np.random.default_rng(5)
        ids = ["0", "1", "2", "3", "4", "007", "-0", "-1"]
        clean = [ids, ids, ["0.0", "-0.0", "0.5", "1e-05", "-2.5e+16", "5e-324", "inf", "-inf",
                            "nan", "1.7976931348623157e+308", "1e+400", "1", "-7"]]
        # 2**53 + 1 is in range of no list but held by no float64 either
        bad_ids = ["+2", " 3", "1_0", "x", "", "18446744073709551616", "9007199254740993", "--1"]
        dirty = [bad_ids, bad_ids, [" 1.5", "1_0.5", "Infinity", "abc", "1.", ".5", "1E5", ""]]
        layout = (digits(15, signed=True), digits(15, signed=True), score)

        def outcome(path):
            try:
                got = read_lists(path, 4, 5)
            except DataError as err:  # named by the file it reads, here a copy's
                return str(err).replace(str(path), str(tmp_path / f"l{k}.tsv"))
            return tuple(a.dtype.str + a.tobytes().hex() for a in (got.users, got.items, got.scores))

        refused = 0
        for k in range(300):
            rows = [[pool[rng.integers(len(pool))] for pool in clean] for _ in range(rng.integers(1, 7))]
            row, damage = rng.integers(len(rows)), rng.integers(10)
            if damage < 3:
                rows[row][damage] = dirty[damage][rng.integers(len(dirty[damage]))]
            elif damage == 3:
                rows[row].append("9")
            elif damage == 4:
                rows.insert(row, [])
            ending = "\r\n" if rng.random() < 0.1 else "\n"
            path = tmp_path / f"l{k}.tsv"
            path.write_text(ending.join("\t".join(r) for r in rows) + ending * (rng.random() < 0.8))
            got = outcome(path)
            try:
                rows = line_loop(path, "user<TAB>item<TAB>score", DataError, layout)
            except DataError as err:
                assert got == str(err), path.read_bytes()
                refused += 1
                continue
            # the loop's rows, written in write_lists' own float repr, read the same
            clean_path = tmp_path / f"c{k}.tsv"
            clean_path.write_text("".join(f"{u}\t{i}\t{s!r}\n" for u, i, s in rows))
            assert got == outcome(clean_path), path.read_bytes()
        # the grammar read and refused each a fair share of the files
        assert 60 < refused < 240

    def test_groups_by_user_in_line_order(self, tmp_path):
        path = lists_file(tmp_path / "l.tsv", [(2, [4, 1]), (0, [3, 5])])
        lists = read_lists(path, 3, 6)
        assert lists.users.tolist() == [0, 2]
        assert lists.items.tolist() == [[3, 5], [4, 1]]

    def test_id_beyond_64_bits(self, tmp_path):
        rows = [(0, [1, 2 ** 64])]
        with pytest.raises(DataError, match="l.tsv: line 2 is not user<TAB>item<TAB>score: '0"):
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
        hot = partition_items(InteractionMatrix(train), 0.25)
        return evaluate_lists(
            topk_lists(scores, 5, mask=train), test, train, hot, ks=[1, 5],
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
        hot = partition_items(InteractionMatrix(sets_to_csr({0: {0}}, 1, 6)), 0.25)
        with pytest.raises(ConfigError):
            evaluate_lists(lists, test, train, hot, ks=[5])

    def test_mask_respected_end_to_end(self, rng):
        scores = rng.standard_normal((5, 10))
        train = rand_binary_csr(rng, 5, 10, 0.3)
        lists = topk_lists(scores, 4, mask=train)
        for u, items in enumerate(lists.items.tolist()):
            seen = set(train.indices[train.indptr[u]:train.indptr[u + 1]].tolist())
            assert not set(items) & seen
