"""Dataset ingestion, splitting, the hot-item mask, and the two sparse
products the condition graphs are built from (guidance), row by row.

Everything here is sparse (scipy CSR, float64, canonical: sorted ids, no
duplicates) and pure: loaders build matrices and the split is a per-user
seeded partition.  No function mutates its inputs.  This module owns the
row layout: canonical_rows reads any rows in it, binary_rows builds 0/1
rows from sorted ids, and pruned finishes every sparse product.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, DimensionError, ParseError, ShapeError


@dataclass(frozen=True)
class InteractionMatrix:
    """User-item matrix in CSR form; raw data is binary, derived data real."""

    matrix: sp.csr_matrix

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @cached_property
    def transposed(self) -> sp.csr_matrix:
        """matrix.T as CSR, built once: copurchase reads it every chunk."""
        return self.matrix.T.tocsr()


@dataclass(frozen=True)
class SocialMatrix:
    """User-user matrix in CSR form.

    raw_edges is the number of distinct directed edges read from disk
    (after self-loop drop), kept for dataset statistics; it is None for
    derived matrices.
    """

    matrix: sp.csr_matrix
    raw_edges: int | None = None

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


@dataclass(frozen=True)
class SplitBundle:
    train: InteractionMatrix
    valid: InteractionMatrix
    test: InteractionMatrix
    seed: int
    debiased_test: InteractionMatrix | None = None


def canonical_rows(x) -> sp.csr_matrix:
    """`x` (an InteractionMatrix or SocialMatrix, a sparse matrix or a 2-D
    array) as float64 CSR in canonical form, duplicates summed; only what
    is not already so is copied."""
    if isinstance(x, (InteractionMatrix, SocialMatrix)):
        x = x.matrix
    if not sp.issparse(x) and np.ndim(x) != 2:
        raise ShapeError(f"rows must be 2-D, got shape {np.shape(x)}")
    x = sp.csr_matrix(x, dtype=np.float64)
    if not x.has_canonical_format:
        x = x.copy()
        x.sum_duplicates()
    return x


def binary_rows(ids, counts, width: int) -> sp.csr_matrix:
    """0/1 CSR whose row r holds the next counts[r] of `ids`, each row's
    ids distinct and ascending."""
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return sp.csr_matrix((np.ones(len(ids)), ids, indptr), shape=(len(counts), width))


def pruned(product) -> sp.csr_matrix:
    """A freshly computed sparse `product` as CSR, its explicit zeros
    dropped in place."""
    m = product.tocsr()
    m.eliminate_zeros()
    return m


def _binary_csr(users, items, shape) -> sp.csr_matrix:
    """CSR with value 1 at each distinct (user, item); duplicates collapse."""
    m = sp.coo_matrix((np.ones(len(users)), (users, items)), shape=shape).tocsr()
    m.data[:] = 1.0
    return m


def social_graph(src, dst, n_users: int) -> SocialMatrix:
    """The symmetric 0/1 graph of the directed edges src -> dst (no
    self-loop); raw_edges counts the distinct directed edges."""
    raw = _binary_csr(src, dst, (n_users, n_users))
    return SocialMatrix(raw.maximum(raw.T).tocsr(), raw_edges=raw.nnz)


# The grammar of every input file: one record a line, fields split by
# single tabs, `\n` or `\r\n` line ends, blank or whitespace-only lines
# anywhere, no sign on an id.  Inside it, np.fromstring(sep=" ") reads
# the file's numbers exactly as int() and float() read its fields.
_ID = rb"[0-9]{1,18}"  # below 2**63: exact in int64
REAL_ID = rb"[0-9]{1,15}"  # below 2**53: exact in float64, for tables holding reals


def tsv_grammar(*fields: bytes) -> re.Pattern:
    """The pattern whose match on a file ends where its first bad line
    starts, or at the file's end when every line is good.

    Every field ends at a forced tab or line end, so a match never
    backtracks more than a line.
    """
    line = b"\t".join(fields)
    # one branch per record line end: a branch on \r?\n matches a fifth slower
    return re.compile(rb"(?:%b\n|%b\r\n|[ \t]*\r?\n)*(?:(?:%b|[ \t]*)\r?\Z)?" % ((line,) * 3))


_PAIRS = tsv_grammar(_ID, _ID)
_RATED = tsv_grammar(REAL_ID, REAL_ID, rb"-?[0-9]+(?:\.[0-9]+)?")


def read_columns(path, what: str, error: type[DataError], *layouts) -> np.ndarray:
    """The file's columns, parsed in one array pass under the first of
    `layouts`, (grammar, fields, dtype) triples, whose grammar reads the
    whole file; otherwise an `error` naming the first line that no layout
    reads past, which `what` describes."""
    with open(path, "rb") as fh:
        data = fh.read()
    ends = []
    for grammar, fields, dtype in layouts:
        ends.append(grammar.match(data).end())
        if ends[-1] == len(data):
            if not data.strip():  # np.fromstring reads whitespace alone as one number
                return np.empty((fields, 0), dtype=dtype)
            return np.fromstring(data, dtype=dtype, sep=" ").reshape(-1, fields).T
    end = max(ends)
    lineno = data.count(b"\n", 0, end) + 1
    line = data[end:].split(b"\n", 1)[0].decode("utf-8", errors="backslashreplace")
    raise error(f"{path}: line {lineno} is not {what}: {line!r}")


def _dimension(path, declared: int | None, max_id: int, what: str) -> int:
    """`declared`, or max_id + 1 when it is None; an id beyond it is refused."""
    if declared is None:
        return max_id + 1
    if max_id >= declared:
        raise DimensionError(f"{path}: {what} id {max_id} exceeds declared n_{what}s={declared}")
    return declared


def load_interactions(
    path, n_users: int | None = None, n_items: int | None = None
) -> InteractionMatrix:
    """Read `user<TAB>item` or `user<TAB>item<TAB>rating` lines into a
    binary matrix.

    Positive ratings count as an interaction; rows rated 0 or below are
    dropped.  Dimensions default to max id + 1 and may be overridden; ids
    beyond declared dims raise DimensionError.
    """
    columns = read_columns(
        path, "user<TAB>item[<TAB>rating]", ParseError,
        (_PAIRS, 2, np.int64), (_RATED, 3, np.float64),
    )
    if len(columns) == 3:
        columns = columns[:2, columns[2] > 0].astype(np.int64)
    users, items = columns
    if not len(users) and (n_users is None or n_items is None):
        raise DataError(f"{path}: no interactions and no declared dimensions")
    max_u, max_i = int(np.max(users, initial=-1)), int(np.max(items, initial=-1))
    shape = (_dimension(path, n_users, max_u, "user"), _dimension(path, n_items, max_i, "item"))
    return InteractionMatrix(_binary_csr(users, items, shape))


def load_social(path, n_users: int | None = None) -> SocialMatrix:
    """Read `user<TAB>user` lines; drop self-loops; symmetrize."""
    columns = read_columns(path, "user<TAB>user", ParseError, (_PAIRS, 2, np.int64))
    edges = columns[:, columns[0] != columns[1]]
    if not edges.shape[1] and n_users is None:
        raise DataError(f"{path}: no edges and no declared dimension")
    n_users = _dimension(path, n_users, int(np.max(edges, initial=-1)), "user")
    return social_graph(*edges, n_users)


def split(R: InteractionMatrix, ratios, seed: int) -> SplitBundle:
    """Per-user seeded partition into train/valid/test.

    ratios = (train, valid, test) fractions summing to 1.  Users with
    fewer than 3 interactions keep everything in train; otherwise valid
    and test each get max(1, floor(k * ratio)) items from a per-user
    permutation, so the split of any one user is independent of all
    others for a fixed seed.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split.ratios must be 3 non-negatives summing to 1, got {ratios}")
    _, r_valid, r_test = ratios
    m = R.matrix.sorted_indices()
    k = np.diff(m.indptr)
    held = k >= 3
    n_test, n_valid = np.zeros_like(k), np.zeros_like(k)
    if r_test > 0:
        n_test[held] = np.maximum(1, np.floor(k[held] * r_test))
    if r_valid > 0:
        n_valid[held] = np.maximum(1, np.floor(k[held] * r_valid))
    # Each permuted user's items, in its permutation's order, at its CSR
    # offsets; a row's leading n_test items are test, the next n_valid valid.
    items = m.indices.copy()
    bounds = m.indptr.tolist()
    for u in np.flatnonzero(n_test + n_valid).tolist():
        np.random.default_rng([seed, u]).shuffle(items[bounds[u] : bounds[u + 1]])
    users = np.repeat(np.arange(R.n_users), k)
    pos = np.arange(len(items)) - m.indptr[users]
    is_test = pos < n_test[users]
    is_valid = ~is_test & (pos < (n_test + n_valid)[users])

    def part(mask) -> InteractionMatrix:
        return InteractionMatrix(_binary_csr(users[mask], items[mask], (R.n_users, R.n_items)))

    return SplitBundle(
        train=part(~(is_test | is_valid)), valid=part(is_valid), test=part(is_test), seed=seed
    )


def auto_cap(counts: np.ndarray, survival: float = 0.3) -> int:
    """Largest per-item cap keeping at least `survival` of the test items."""
    counts = counts[counts > 0]
    if len(counts) == 0:
        raise DataError("test split is empty")
    need = survival * len(counts)
    for c in range(int(counts.max()), 0, -1):
        if np.count_nonzero(counts >= c) >= need:
            return c
    return 1


def build_debiased_test(
    test: InteractionMatrix, cap: int | str = "auto", seed: int = 0
) -> InteractionMatrix:
    """Resample the test split to an equal per-item interaction count.

    Items with at least `cap` test interactions keep exactly `cap` of
    them, sampled uniformly without replacement; the rest are dropped.
    cap="auto" picks the largest value retaining >= 30% of test items.
    """
    m = test.matrix.tocsc()
    counts = np.diff(m.indptr)
    if cap == "auto":
        cap = auto_cap(counts)
    cap = int(cap)
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    keep_items = np.flatnonzero(counts >= cap)
    if len(keep_items) == 0:
        raise DataError(f"no item has {cap} test interactions; debiased test empty")
    rng = np.random.default_rng([seed, 0xDEB1A5])
    users: list[int] = []
    items: list[int] = []
    for item in keep_items:
        col_users = m.indices[m.indptr[item] : m.indptr[item + 1]]
        pick = rng.choice(len(col_users), size=cap, replace=False)
        users.extend(col_users[pick])
        items.extend([item] * cap)
    return InteractionMatrix(
        _binary_csr(users, items, (test.n_users, test.n_items))
    )


def partition_items(train: InteractionMatrix, hot_fraction: float) -> np.ndarray:
    """The hot-item mask: the top ceil(fraction * n) items by train count
    are hot (True), the rest tail (~hot).

    Ties in count break toward the lower item id.  A fraction that leaves
    no tail item is a ConfigError.
    """
    if not 0.0 < hot_fraction < 1.0:
        raise ConfigError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
    n = train.n_items
    n_hot = math.ceil(hot_fraction * n)
    if n_hot >= n:
        raise ConfigError(
            f"eval.hot_fraction={hot_fraction} makes all {n} items hot; no tail item is left"
        )
    counts = np.asarray(train.matrix.sum(axis=0)).ravel()
    hot = np.zeros(n, dtype=bool)
    hot[np.lexsort((np.arange(n), -counts))[:n_hot]] = True
    return hot


def long_tail(R: InteractionMatrix, hot: np.ndarray) -> InteractionMatrix:
    """R with its `hot` columns zeroed, their entries dropped."""
    return InteractionMatrix(pruned(R.matrix @ sp.diags((~hot).astype(np.float64))))


def copurchase(R_l: InteractionMatrix, rows: slice) -> sp.csr_matrix:
    """Rows `rows` of the co-interaction counts R_l @ R_l.T, diagonal kept."""
    return pruned(R_l.matrix[rows] @ R_l.transposed)


def social_preference(S: SocialMatrix, R: InteractionMatrix, rows: slice) -> sp.csr_matrix:
    """Rows `rows` of the neighbor counts: (S @ R)_ij = neighbors of i on j."""
    if S.n_users != R.n_users:
        raise ConfigError(f"dims differ: {S.n_users} vs {R.n_users}")
    return pruned(S.matrix[rows] @ R.matrix)
