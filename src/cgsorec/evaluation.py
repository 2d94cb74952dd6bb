"""Ranking metrics, hot/tail breakdowns, and popularity diagnostics.

Recall is the global hit ratio (summed hits over summed test-set sizes);
NDCG is a per-user mean of DCG/IDCG with log-2 discounting.  Users whose
test row is empty are excluded everywhere — both metrics are undefined
for them.

Every ranking in the package goes through top_k_rows: the top-K lists
evaluated here and at each validation epoch, and the re-binarized social
graph (guidance.binarize_social).  Ties in scores always break toward
the lower id, which keeps every ranking reproducible bit-for-bit, and
rows are ranked in bounded blocks with no per-row Python loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionMatrix, ItemGroups
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class RankedList:
    """Top-K recommendation for one user, best first, train items absent."""

    user: int
    items: np.ndarray
    scores: np.ndarray


def _as_csr(matrix) -> sp.csr_matrix:
    if isinstance(matrix, InteractionMatrix):
        return matrix.matrix
    return matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(matrix)


def _row_indices(m: sp.csr_matrix, u: int) -> np.ndarray:
    return m.indices[m.indptr[u] : m.indptr[u + 1]]


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


def topk_lists(score_matrix: np.ndarray, K: int, mask=None) -> list[RankedList]:
    """One RankedList per row of top_k_rows(score_matrix, K, mask)."""
    ids, top = top_k_rows(score_matrix, K, mask)
    return [RankedList(user=u, items=ids[u], scores=top[u]) for u in range(len(ids))]


def _truncate(rl: RankedList, k: int | None) -> np.ndarray:
    return rl.items if k is None else rl.items[:k]


def recall_at_k(lists, test, k: int | None = None, per_user: bool = False) -> float:
    """Hit ratio over the test set.

    Default is the global ratio sum(hits) / sum(|T(u)|); per_user=True
    averages the per-user ratios instead (both appear in the
    literature — the global form is the primary one here).
    """
    test = _as_csr(test)
    hits_total = 0
    relevant_total = 0
    ratios = []
    for rl in lists:
        t_items = _row_indices(test, rl.user)
        if len(t_items) == 0:
            continue
        rec = _truncate(rl, k)
        hits = int(np.isin(rec, t_items).sum())
        hits_total += hits
        relevant_total += len(t_items)
        ratios.append(hits / len(t_items))
    if relevant_total == 0:
        raise DataError("recall undefined: every test row is empty")
    if per_user:
        return float(np.mean(ratios))
    return hits_total / relevant_total


def ndcg_at_k(lists, test, k: int | None = None) -> float:
    """Mean over users of DCG/IDCG with 1/log2(rank+1) gains."""
    test = _as_csr(test)
    values = []
    for rl in lists:
        t_items = _row_indices(test, rl.user)
        if len(t_items) == 0:
            continue
        rec = _truncate(rl, k)
        ranks = np.flatnonzero(np.isin(rec, t_items)) + 1
        dcg = float(np.sum(1.0 / np.log2(ranks + 1)))
        ideal = min(len(t_items), len(rec))
        idcg = float(np.sum(1.0 / np.log2(np.arange(1, ideal + 1) + 1)))
        values.append(dcg / idcg)
    if not values:
        raise DataError("ndcg undefined: every test row is empty")
    return float(np.mean(values))


def group_metrics(
    lists, test, groups: ItemGroups, ks
) -> tuple[dict[str, dict[str, dict[int, float]]], list[str]]:
    """Recall/NDCG per item group, test rows restricted to the group.

    Ranks stay those of the full recommendation list; only the relevant
    sets shrink.  A group with no test interactions is omitted, with a
    notice saying so.
    """
    test = _as_csr(test)
    out: dict[str, dict[str, dict[int, float]]] = {}
    notices: list[str] = []
    for name, members in (("hot", groups.hot), ("tail", groups.tail)):
        cols = np.zeros(test.shape[1], dtype=bool)
        cols[members] = True
        restricted = (test @ sp.diags(cols.astype(np.float64))).tocsr()
        restricted.eliminate_zeros()
        if restricted.nnz == 0:
            notices.append(f"group {name!r} has no test interactions; metrics omitted")
            continue
        out[name] = {
            "recall": {k: recall_at_k(lists, restricted, k) for k in ks},
            "ndcg": {k: ndcg_at_k(lists, restricted, k) for k in ks},
        }
    return out, notices


def frequency_histogram(
    lists, train, groups: ItemGroups, n_buckets: int = 10
) -> dict:
    """How often each popularity bucket gets recommended.

    Items are bucketed by train interaction count (bucket 1 = least
    popular) into equal-size buckets; the histogram reports the mean
    top-K appearance count per bucket plus hot/tail means and the total
    (which always equals K * number of lists).
    """
    if not lists:
        raise DataError("no ranked lists to histogram")
    train = _as_csr(train)
    n_items = train.shape[1]
    counts = np.zeros(n_items, dtype=np.int64)
    for rl in lists:
        counts[rl.items] += 1
    popularity = np.asarray(train.sum(axis=0)).ravel()
    order = np.lexsort((np.arange(n_items), popularity))
    buckets = np.array_split(order, n_buckets)
    decile_means = {
        i + 1: float(counts[b].mean()) if len(b) else 0.0
        for i, b in enumerate(buckets)
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
    lists,
    test,
    train,
    groups: ItemGroups,
    ks,
    config_echo: dict | None = None,
    per_user_recall: bool = False,
) -> EvalReport:
    """Full evaluation of already-ranked lists against a test split."""
    ks = sorted(int(k) for k in ks)
    if lists and len(lists[0].items) < max(ks):
        raise ConfigError(
            f"lists hold {len(lists[0].items)} items, need {max(ks)} for K={max(ks)}"
        )
    recall = {k: recall_at_k(lists, test, k, per_user=per_user_recall) for k in ks}
    ndcg = {k: ndcg_at_k(lists, test, k) for k in ks}
    per_group, notices = group_metrics(lists, test, groups, ks)
    hist = frequency_histogram(lists, train, groups)
    return EvalReport(
        recall=recall,
        ndcg=ndcg,
        per_group=per_group,
        freq_hist=hist,
        notices=notices,
        config_echo=dict(config_echo or {}),
    )
