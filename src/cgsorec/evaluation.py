"""Ranking metrics, hot/tail breakdowns, and popularity diagnostics.

Every metric comes from one hit matrix: the lists' (lists × K) item ids
looked up once against the test rows.  Recall@k (global hit ratio, or
per-user mean) and NDCG@k (per-user DCG/IDCG, log-2 discounts) are
column k of row-wise cumsums; a hot or tail group masks the hits and
each user's relevant count, and users with none are left out.  The
popularity histogram is one bincount.  Test, train and mask rows are
read as corpus.canonical_rows, so an entry stored twice counts once.

Every ranking goes through top_k_rows: the top-K lists evaluated here and
at each validation epoch, the re-binarized social graph
(guidance.binarize_social), and infer's lists, which it ranks straight
from the two item chains, blending each block of rows as it ranks it.
A block costs about one pass over its scores: an argpartition picks
each row's k best, and only rows whose ties straddle the k-th value (or
whose k-th score is NaN, -inf or masked) are lexsorted whole.  Ties
break toward the lower id and masked ids rank last, so every ranking is
reproducible bit for bit and lists no masked id.

A sweep's whole w_r grid is ranked in one pass by top_k_grid: it bounds
each item's blend over the grid, drops the items that cannot reach a
row's top k at any value, and has top_k_rows rank the few survivors
once per value, so every list is the one top_k_rows gives on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import canonical_rows
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class RankedLists:
    """Top-K lists, best first, train items absent: row j is users[j]'s.

    users is (L,), items an (L, K) int array and scores an (L, K) float64
    array.  topk_lists builds valid lists; pipeline.read_lists checks the
    ones read from a file, so nothing here checks them again.
    """

    users: np.ndarray
    items: np.ndarray
    scores: np.ndarray


ROW_BLOCK = 256


def _checked_mask(mask, shape, k: int) -> sp.csr_matrix:
    """`mask` (none when None) as canonical rows; a ConfigError when k
    exceeds a row's unmasked count."""
    mask = canonical_rows(sp.csr_matrix(shape) if mask is None else mask)
    free = shape[1] - np.diff(mask.indptr)
    if (free < k).any():
        raise ConfigError(f"K={k} exceeds {free[free < k][0]} unmasked items")
    return mask


def blend(a: np.ndarray, b: np.ndarray | None, w: float) -> np.ndarray:
    """(1 - w) * a + w * b; `a` itself when there is no b or w is 0."""
    if b is None or w == 0.0:
        return a
    return (1.0 - w) * a + w * b


def top_k_rows(
    scores: np.ndarray, k: int, mask=None, other=None, w: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k best column ids and their scores, best first.

    The rows ranked are those of blend(scores, other, w).  Ties break
    toward the lower column id and NaN ranks after every number.  Masked
    entries (a sparse matrix of already-seen (row, column) positions,
    duplicates allowed) rank after everything, so no masked id is listed;
    k larger than a row's unmasked count is a config error.

    Rows are ranked ROW_BLOCK at a time in one buffer holding the block's
    blend (the same operations as blend), negated, with +inf at the
    masked positions.  An argpartition picks each row's k smallest.  When
    the k-th is below +inf and every entry equal to it was picked, the
    picks sorted by id and then stably by value are the row's list.  Any
    other row (ties straddling the cut, a k-th value of NaN or +inf) is
    lexsorted whole by (masked, value); lexsort is stable, so ties keep
    id order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n = scores.shape
    other = None if other is None or w == 0.0 else np.asarray(other, dtype=np.float64)
    mask = _checked_mask(mask, scores.shape, k)
    ids = np.empty((n_rows, k), dtype=np.intp)
    top = np.empty((n_rows, k))
    if k == 0:
        return ids, top
    buf = np.empty((min(ROW_BLOCK, n_rows), n))
    term = None if other is None else np.empty_like(buf)
    for start in range(0, n_rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n_rows)
        neg = buf[: stop - start]
        if other is None:
            np.negative(scores[start:stop], out=neg)
        else:
            np.multiply(1.0 - w, scores[start:stop], out=neg)
            neg += np.multiply(w, other[start:stop], out=term[: stop - start])
            np.negative(neg, out=neg)
        ptr = mask.indptr[start : stop + 1]
        rows = np.repeat(np.arange(stop - start), np.diff(ptr))
        neg.reshape(-1)[rows * n + mask.indices[ptr[0] : ptr[-1]]] = np.inf
        cols = np.argpartition(neg, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(neg, cols[:, k - 1 :], axis=1)
        cols.sort(axis=1)
        picked = np.count_nonzero(np.take_along_axis(neg, cols, axis=1) == kth, axis=1)
        fast = (kth[:, 0] < np.inf) & (np.count_nonzero(neg == kth, axis=1) == picked)
        slow = np.flatnonzero(~fast)
        if slow.size:
            sub = mask[start + slow]
            masked = np.zeros((len(slow), n), dtype=bool)
            masked[np.repeat(np.arange(len(slow)), np.diff(sub.indptr)), sub.indices] = True
            cols[slow] = np.lexsort((neg[slow], masked))[:, :k]
        vals = np.take_along_axis(neg, cols, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        ids[start:stop] = np.take_along_axis(cols, order, axis=1)
        top[start:stop] = -np.take_along_axis(vals, order, axis=1)
    return ids, top


# top_k_grid's margin, in units of a row's size: 2**13 times the dozen
# or so roundings that can separate a bound from a ranked blend.
_SLACK = 2.0**-40
_TINY = 2.0**-1022


def top_k_grid(
    a: np.ndarray, b: np.ndarray | None, ws, k: int, mask=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """[top_k_rows(a, k, mask, b, w) for w in ws], bit for bit, from one
    ROW_BLOCK pass over the rows.

    For 0 <= w < 1 the blend is (1 - w) * (a + lam * b), lam = w / (1 - w),
    so a row ranks at every such w of the grid as a + lam * b does, and
    that lies between its values at the grid's smallest and largest lam.
    An unmasked item whose upper bound is below its row's k-th largest
    lower bound by more than rounding can bridge is beaten by k items at
    every w, ties included, so it is dropped.  The survivors, gathered in
    ascending id order (padding masked), are ranked per w by top_k_rows,
    which keeps the blend and the tie rules in one place.  Every w goes to
    top_k_rows on all the rows when there is no b or the grid holds fewer
    than two w in [0, 1), a w outside [0, 1) always does, and a block
    holding a non-finite score is ranked per w on the whole block.
    """
    ws = [float(w) for w in ws]
    bounded = [j for j, w in enumerate(ws) if 0.0 <= w < 1.0]
    if b is None or len(bounded) < 2 or k == 0:
        return [top_k_rows(a, k, mask, b, w) for w in ws]
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_rows, n = a.shape
    mask = _checked_mask(mask, a.shape, k)
    out = [
        (np.empty((n_rows, k), dtype=np.intp), np.empty((n_rows, k))) if j in bounded
        else top_k_rows(a, k, mask, b, w)
        for j, w in enumerate(ws)
    ]
    lams = [ws[j] / (1.0 - ws[j]) for j in bounded]
    lam_lo, lam_hi = min(lams), max(lams)
    keep = np.zeros((n_rows, n), dtype=bool)
    bound = np.zeros(n_rows, dtype=bool)
    buf = np.empty((3, min(ROW_BLOCK, n_rows), n))
    for start in range(0, n_rows, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n_rows))
        a_blk, b_blk = a[rows], b[rows]
        lo, hi, f = buf[:, : len(a_blk)]
        # the row's largest |a| + lam * |b| over the grid: each rounding
        # of a bound, a blend or a lam moves a + lam * b by at most 2**-53
        # of it (or by 2**-1075 times 1 + lam below the normal range)
        size = np.abs(a_blk, out=lo).max(axis=1) + lam_hi * np.abs(b_blk, out=hi).max(axis=1)
        if not np.isfinite(size).all():
            for j in bounded:
                out[j][0][rows], out[j][1][rows] = top_k_rows(a_blk, k, mask[rows], b_blk, ws[j])
            continue
        np.multiply(b_blk, lam_lo, out=f)
        f += a_blk
        np.multiply(b_blk, lam_hi, out=hi)
        hi += a_blk
        np.minimum(f, hi, out=lo)
        np.maximum(f, hi, out=hi)
        ptr = mask.indptr[rows.start : rows.stop + 1]
        masked = np.repeat(np.arange(len(a_blk)) * n, np.diff(ptr))
        masked += mask.indices[ptr[0] : ptr[-1]]
        lo.reshape(-1)[masked] = -np.inf
        lo.partition(n - k, axis=1)
        floor = lo[:, n - k] - _SLACK * (size + (1.0 + lam_hi) * _TINY)
        np.greater_equal(hi, floor[:, None], out=keep[rows])
        keep[rows].reshape(-1)[masked] = False
        bound[rows] = True
    users = np.flatnonzero(bound)
    keep = keep[users]
    count = np.count_nonzero(keep, axis=1)
    at, cols = np.nonzero(keep)
    sub = np.zeros((len(users), count.max(initial=0)), dtype=np.intp)
    sub[at, np.arange(len(cols)) - np.repeat(np.cumsum(count) - count, count)] = cols
    pad = sp.csr_matrix(np.arange(sub.shape[1]) >= count[:, None])
    a_sub, b_sub = a[users[:, None], sub], b[users[:, None], sub]
    for j in bounded:
        ids, out[j][1][users] = top_k_rows(a_sub, k, pad, b_sub, ws[j])
        out[j][0][users] = np.take_along_axis(sub, ids, axis=1)
    return out


def topk_lists(
    score_matrix: np.ndarray, K: int, mask=None, other=None, w=0.0
) -> RankedLists | list[RankedLists]:
    """top_k_rows(score_matrix, K, mask, other, w) as the lists of users
    0..n-1; for a sequence w, one RankedLists per value, ranked in one
    pass by top_k_grid."""
    users = np.arange(len(score_matrix))
    if np.ndim(w):
        grid = top_k_grid(score_matrix, other, w, K, mask)
        return [RankedLists(users, *ranked) for ranked in grid]
    return RankedLists(users, *top_k_rows(score_matrix, K, mask, other, w))


def _ranking_metrics(lists: RankedLists, test, ks, in_groups=(None,)) -> list:
    """(recall, ndcg) at every k in `ks`, for each item mask in `in_groups`.

    Only the masked test items count (None: all items), and lists whose
    user holds none are left out; with none left, the overall metrics
    raise DataError and a group's are None.  IDCG comes from a table by
    min(relevant, k); k None or beyond the list length is the whole list.
    """
    test = canonical_rows(test)
    (n_rows, n), ptr = test.shape, test.indptr
    users, ids = lists.users, lists.items
    rows = np.repeat(np.arange(n_rows), np.diff(ptr))
    hit = np.isin(users[:, None] * n + ids, rows * n + test.indices)
    K = ids.shape[1]
    gain = 1.0 / np.log2(np.arange(2, K + 2))
    idcg = np.array([np.sum(gain[:m]) for m in range(K + 1)])
    pad = ((0, 0), (1, 0))  # column k of a cumsum covers the top k
    out = []
    for in_group in in_groups:
        member = np.ones(n, dtype=bool) if in_group is None else in_group
        held = np.concatenate(([0], np.cumsum(member[test.indices])))
        relevant = (held[ptr[1:]] - held[ptr[:-1]])[users]
        keep = relevant > 0
        if not keep.any():
            if in_group is None:
                raise DataError("metrics undefined: every listed user's test row is empty")
            out.append(None)
            continue
        relevant, hits = relevant[keep], (hit & member[ids])[keep]
        found = np.cumsum(np.pad(hits, pad), axis=1)
        dcg = np.cumsum(np.pad(np.where(hits, gain, 0.0), pad), axis=1)
        recall, ndcg = {}, {}
        for k in ks:
            col = K if k is None else min(k, K)
            got = found[:, col]
            recall[k] = float(got.sum() / relevant.sum())
            ndcg[k] = float(np.mean(dcg[:, col] / idcg[np.minimum(relevant, col)]))
        out.append((recall, ndcg))
    return out


def recall_at_k(lists: RankedLists, test, k: int | None = None) -> float:
    """Hit ratio over the test set: sum(hits) / sum(|T(u)|)."""
    return _ranking_metrics(lists, test, [k])[0][0][k]


def ndcg_at_k(lists: RankedLists, test, k: int | None = None) -> float:
    """Mean over users of DCG/IDCG with 1/log2(rank+1) gains."""
    return _ranking_metrics(lists, test, [k])[0][1][k]


def group_metrics(
    lists: RankedLists, test, hot: np.ndarray, ks
) -> tuple[dict[str, dict[str, dict[int, float]]], list[str]]:
    """Recall/NDCG for the `hot` items and the tail (~hot), test rows
    restricted to the group.

    Ranks stay those of the full recommendation list; only the relevant
    sets shrink.  A group in which the listed users hold no test items is
    omitted, with a notice saying so.
    """
    scored = dict(zip(("hot", "tail"), _ranking_metrics(lists, test, ks, (hot, ~hot))))
    out = {name: {"recall": m[0], "ndcg": m[1]} for name, m in scored.items() if m}
    notice = "group {!r} has no test interactions; metrics omitted"
    notices = [notice.format(name) for name, m in scored.items() if m is None]
    return out, notices


def frequency_histogram(lists: RankedLists, train, hot: np.ndarray, n_buckets: int = 10) -> dict:
    """How often each popularity bucket gets recommended.

    Items are bucketed by train interaction count (bucket 1 = least
    popular) into equal-size buckets; the histogram reports the mean
    top-K appearance count per bucket plus hot/tail means and the total
    (which always equals K * number of lists).
    """
    if not len(lists.users):
        raise DataError("no ranked lists to histogram")
    train = canonical_rows(train)
    n_items = train.shape[1]
    counts = np.bincount(lists.items.ravel(), minlength=n_items)
    popularity = np.asarray(train.sum(axis=0)).ravel()
    order = np.lexsort((np.arange(n_items), popularity))
    buckets = np.array_split(order, n_buckets)
    decile_means = {
        i + 1: float(counts[b].mean()) if len(b) else 0.0 for i, b in enumerate(buckets)
    }
    return {
        "decile_mean_freq": decile_means,
        "hot_mean_freq": float(counts[hot].mean()),
        "tail_mean_freq": float(counts[~hot].mean()),
        "total_count": int(counts.sum()),
    }


def keys_to_str(obj):
    """`obj` with every dict key stringified, nested dicts and lists included."""
    if isinstance(obj, dict):
        return {str(k): keys_to_str(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [keys_to_str(v) for v in obj]
    return obj


@dataclass
class EvalReport:
    """Everything one evaluation run produces, JSON-serializable."""

    recall: dict[int, float]
    ndcg: dict[int, float]
    per_group: dict[str, dict[str, dict[int, float]]]
    freq_hist: dict
    notices: list[str] = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "recall": self.recall,
            "ndcg": self.ndcg,
            "per_group": self.per_group,
            "freq_hist": self.freq_hist,
            "notices": list(self.notices),
            "config": self.config_echo,
        }
        return json.dumps(keys_to_str(payload), indent=2, sort_keys=True) + "\n"


def evaluate_lists(
    lists: RankedLists, test, train, hot: np.ndarray, ks, config_echo: dict | None = None
) -> EvalReport:
    """Full evaluation of already-ranked lists against a test split."""
    ks, K = sorted(int(k) for k in ks), lists.items.shape[1]
    if len(lists.users) and K < max(ks):
        raise ConfigError(f"lists hold {K} items, fewer than K={max(ks)}")
    [(recall, ndcg)] = _ranking_metrics(lists, test, ks)
    per_group, notices = group_metrics(lists, test, hot, ks)
    hist = frequency_histogram(lists, train, hot)
    return EvalReport(recall, ndcg, per_group, hist, notices, dict(config_echo or {}))
