"""Ranking metrics, hot/tail breakdowns, and popularity diagnostics.

Every metric comes from one hit matrix: the lists' (lists × K) item ids
looked up once against the test rows.  Recall@k (global hit ratio, or
per-user mean) and NDCG@k (per-user DCG/IDCG, log-2 discounts) are
column k of row-wise cumsums; a hot or tail group masks the hits and
each user's relevant count, and users with none are left out.  The
popularity histogram is one bincount.

Every ranking goes through top_k_rows: the top-K lists evaluated here and
at each validation epoch, and the re-binarized social graph
(guidance.binarize_social).  Ties break toward the lower id, so every
ranking is reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionMatrix, ItemGroups
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


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, InteractionMatrix):
        return matrix.matrix
    return matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(matrix)


ROW_BLOCK = 256


def top_k_rows(scores: np.ndarray, k: int, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k best column ids and their scores, best first.

    Ties break toward the lower column id and NaN ranks last.  Masked
    entries (a sparse matrix of already-seen (row, column) positions,
    duplicates allowed) score -inf; k larger than a row's unmasked count
    is a config error.  Rows are ranked ROW_BLOCK at a time: a partition
    finds each row's k-th best value, a running count keeps the lowest-id
    ties at that value, and a stable sort orders the k survivors.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n = scores.shape
    mask = _as_csr(mask) if mask is not None else sp.csr_matrix(scores.shape)
    ids = np.empty((n_rows, k), dtype=np.intp)
    top = np.empty((n_rows, k))
    for start in range(0, n_rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n_rows)
        ptr = mask.indptr[start : stop + 1]
        masked = np.zeros((stop - start, n), dtype=bool)
        rows = np.repeat(np.arange(stop - start), np.diff(ptr))
        masked[rows, mask.indices[ptr[0] : ptr[-1]]] = True
        free = n - masked.sum(axis=1)
        if (free < k).any():
            raise ConfigError(f"K={k} exceeds {free[free < k][0]} unmasked items")
        if k == 0:
            continue
        neg = np.where(masked, np.inf, -scores[start:stop])
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
        nan_kth, nan = np.isnan(kth), np.isnan(neg)
        below = (neg < kth) | (nan_kth & ~nan)
        at = (neg == kth) | (nan_kth & nan)
        need = k - below.sum(axis=1, keepdims=True)
        keep = below | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= need))
        cols = np.nonzero(keep)[1].reshape(stop - start, k)
        vals = np.take_along_axis(neg, cols, axis=1)
        order = np.argsort(vals, axis=1, kind="stable")
        ids[start:stop] = np.take_along_axis(cols, order, axis=1)
        top[start:stop] = -np.take_along_axis(vals, order, axis=1)
    return ids, top


def topk_lists(score_matrix: np.ndarray, K: int, mask=None) -> RankedLists:
    """top_k_rows(score_matrix, K, mask) as the lists of users 0..n-1."""
    return RankedLists(np.arange(len(score_matrix)), *top_k_rows(score_matrix, K, mask))


def _ranking_metrics(lists: RankedLists, test, ks, in_groups=(None,), per_user=False) -> list:
    """(recall, ndcg) at every k in `ks`, for each item mask in `in_groups`.

    Only the masked test items count (None: all items), and lists whose
    user holds none are left out; with none left, the overall metrics
    raise DataError and a group's are None.  IDCG comes from a table by
    min(relevant, k); k None or beyond the list length is the whole list.
    """
    test = _as_csr(test)
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
            recall[k] = float(np.mean(got / relevant) if per_user else got.sum() / relevant.sum())
            ndcg[k] = float(np.mean(dcg[:, col] / idcg[np.minimum(relevant, col)]))
        out.append((recall, ndcg))
    return out


def recall_at_k(lists: RankedLists, test, k: int | None = None, per_user: bool = False) -> float:
    """Hit ratio over the test set.

    Default is the global ratio sum(hits) / sum(|T(u)|); per_user=True
    averages the per-user ratios instead (both appear in the
    literature — the global form is the primary one here).
    """
    return _ranking_metrics(lists, test, [k], per_user=per_user)[0][0][k]


def ndcg_at_k(lists: RankedLists, test, k: int | None = None) -> float:
    """Mean over users of DCG/IDCG with 1/log2(rank+1) gains."""
    return _ranking_metrics(lists, test, [k])[0][1][k]


def group_metrics(
    lists: RankedLists, test, groups: ItemGroups, ks
) -> tuple[dict[str, dict[str, dict[int, float]]], list[str]]:
    """Recall/NDCG per item group, test rows restricted to the group.

    Ranks stay those of the full recommendation list; only the relevant
    sets shrink.  A group in which the listed users hold no test items is
    omitted, with a notice saying so.
    """
    masks = (groups.hot_mask, ~groups.hot_mask)
    scored = dict(zip(("hot", "tail"), _ranking_metrics(lists, test, ks, masks)))
    out = {name: {"recall": m[0], "ndcg": m[1]} for name, m in scored.items() if m}
    notice = "group {!r} has no test interactions; metrics omitted"
    notices = [notice.format(name) for name, m in scored.items() if m is None]
    return out, notices


def frequency_histogram(lists: RankedLists, train, groups: ItemGroups, n_buckets: int = 10) -> dict:
    """How often each popularity bucket gets recommended.

    Items are bucketed by train interaction count (bucket 1 = least
    popular) into equal-size buckets; the histogram reports the mean
    top-K appearance count per bucket plus hot/tail means and the total
    (which always equals K * number of lists).
    """
    if not len(lists.users):
        raise DataError("no ranked lists to histogram")
    train = _as_csr(train)
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
        "hot_mean_freq": float(counts[groups.hot].mean()),
        "tail_mean_freq": float(counts[groups.tail].mean()),
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
    lists: RankedLists, test, train, groups: ItemGroups, ks,
    config_echo: dict | None = None, per_user_recall: bool = False,
) -> EvalReport:
    """Full evaluation of already-ranked lists against a test split."""
    ks, K = sorted(int(k) for k in ks), lists.items.shape[1]
    if len(lists.users) and K < max(ks):
        raise ConfigError(f"lists hold {K} items, fewer than K={max(ks)}")
    [(recall, ndcg)] = _ranking_metrics(lists, test, ks, per_user=per_user_recall)
    per_group, notices = group_metrics(lists, test, groups, ks)
    hist = frequency_histogram(lists, train, groups)
    return EvalReport(recall, ndcg, per_group, hist, notices, dict(config_echo or {}))
