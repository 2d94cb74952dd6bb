"""Dataset ingestion, splitting, the hot-item mask, and the condition
matrices built from corpus' products (guidance.build_social_condition
and build_item_condition), composed from their row blocks."""

import math
import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec import corpus, pipeline
from cgsorec.corpus import (
    InteractionMatrix,
    SocialMatrix,
    auto_cap,
    build_debiased_test,
    copurchase,
    load_interactions,
    load_social,
    long_tail,
    partition_items,
    social_preference,
    split,
)
from cgsorec.errors import ConfigError, DataError
from cgsorec.evaluation import RankedLists
from cgsorec.guidance import build_item_condition, build_social_condition

from conftest import decimal, digits, line_loop, rand_binary_csr
from test_pipeline import traced_peak


def im(dense) -> InteractionMatrix:
    return InteractionMatrix(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))


def sm(dense) -> SocialMatrix:
    return SocialMatrix(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))


def stacked(build, n: int) -> sp.csr_matrix:
    """The row blocks build(rows) over n users, two rows at a time (the
    last block partial when n is odd), stacked: the whole matrix."""
    return sp.vstack([build(slice(i, min(i + 2, n))) for i in range(0, n, 2)], format="csr")


def social_condition(S: SocialMatrix, R: InteractionMatrix, hot, delta: float) -> sp.csr_matrix:
    return stacked(partial(build_social_condition, S, long_tail(R, hot), delta), S.n_users)


def item_condition(S_bar: SocialMatrix, R: InteractionMatrix, lam: float) -> sp.csr_matrix:
    return stacked(partial(build_item_condition, S_bar, R, lam), R.n_users)


class TestLoadInteractions:
    def test_dedup(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("0\t1\n0\t1\n1\t0\n")
        R = load_interactions(f)
        assert R.nnz == 2
        assert R.matrix[0, 1] == 1.0 and R.matrix[1, 0] == 1.0

    def test_empty_with_declared_dims(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("")
        R = load_interactions(f, n_users=3, n_items=4)
        assert (R.n_users, R.n_items, R.nnz) == (3, 4, 0)

    def test_empty_without_dims_rejected(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("")
        with pytest.raises(DataError):
            load_interactions(f)

    def test_malformed_line_numbered(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("0\t1\nnot-an-id\t2\n")
        with pytest.raises(DataError, match="line 2"):
            load_interactions(f)

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("0\t1\t5\t9\n")
        with pytest.raises(DataError, match="line 1"):
            load_interactions(f)

    def test_id_overflow_vs_declared_dims(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("0\t9\n")
        with pytest.raises(DataError, match="item id 9 exceeds declared n_items=5"):
            load_interactions(f, n_users=2, n_items=5)

    def test_positive_rating_binarized_nonpositive_dropped(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("0\t0\t4.5\n0\t1\t0\n1\t0\t-2\n1\t1\t1\n")
        R = load_interactions(f)
        assert R.nnz == 2
        assert R.matrix[0, 0] == 1.0 and R.matrix[1, 1] == 1.0

    def test_dims_inferred_from_max_ids(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("2\t7\n")
        R = load_interactions(f)
        assert (R.n_users, R.n_items) == (3, 8)


class TestLoadSocial:
    def test_self_loop_dropped(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("2\t2\n0\t1\n")
        S = load_social(f, n_users=3)
        assert S.matrix[2, 2] == 0.0
        assert S.matrix.diagonal().sum() == 0.0
        assert S.raw_edges == 1

    def test_symmetrize_default(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("0\t1\n")
        S = load_social(f)
        assert S.matrix[0, 1] == 1.0 and S.matrix[1, 0] == 1.0
        assert S.raw_edges == 1

    def test_raw_edges_counts_directed_input(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("0\t1\n1\t0\n2\t0\n")
        S = load_social(f)
        assert S.raw_edges == 3
        assert S.matrix.nnz == 4  # symmetrized pairs collapse

    def test_n_users_override(self, tmp_path):
        f = tmp_path / "s.tsv"
        f.write_text("0\t1\n")
        S = load_social(f, n_users=6)
        assert S.n_users == 6


# The loaders' rules, applied to the rows of the test's own line loop.
INTERACTIONS = "user<TAB>item[<TAB>rating]"
PAIR, RATED = (digits(18), digits(18)), (digits(15), digits(15), decimal)


def reference_interactions(path, n_users=None, n_items=None):
    rows = line_loop(path, INTERACTIONS, PAIR, RATED)
    users = [row[0] for row in rows if len(row) == 2 or row[2] > 0]
    items = [row[1] for row in rows if len(row) == 2 or row[2] > 0]
    if not users and (n_users is None or n_items is None):
        raise DataError(f"{path}: no interactions and no declared dimensions")
    max_u = max(users, default=-1)
    max_i = max(items, default=-1)
    if n_users is None:
        n_users = max_u + 1
    elif max_u >= n_users:
        raise DataError(f"{path}: user id {max_u} exceeds declared n_users={n_users}")
    if n_items is None:
        n_items = max_i + 1
    elif max_i >= n_items:
        raise DataError(f"{path}: item id {max_i} exceeds declared n_items={n_items}")
    return InteractionMatrix(corpus.binary_pairs(users, items, (n_users, n_items)))


def reference_social(path, n_users=None):
    edges = [row for row in line_loop(path, "user<TAB>user", PAIR) if row[0] != row[1]]
    src, dst = [a for a, _ in edges], [b for _, b in edges]
    if not src and n_users is None:
        raise DataError(f"{path}: no edges and no declared dimension")
    max_u = max(max(src, default=-1), max(dst, default=-1))
    if n_users is None:
        n_users = max_u + 1
    elif max_u >= n_users:
        raise DataError(f"{path}: user id {max_u} exceeds declared n_users={n_users}")
    raw = corpus.binary_pairs(src, dst, (n_users, n_users))
    return SocialMatrix(raw.maximum(raw.T).tocsr(), raw_edges=raw.nnz)


def outcome(load, *args, **kwargs):
    """Everything a loader call gives back: the matrix arrays bit for bit,
    or the exception's class and message."""
    try:
        got = load(*args, **kwargs)
    except Exception as err:  # any class: the class itself is compared
        return type(err), str(err)
    m = got.matrix
    arrays = tuple((a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data))
    return m.shape, arrays, getattr(got, "raw_edges", None)


CLEAN_IDS = ["0", "1", "2", "3", "5", "8", "11", "007", "000000000000000000"]
DIRTY_IDS = [
    "+7", " 7", "7 ", "7_0", "-3", "", "x", "\u0663", "1.0",
    "12345678901234567890", "9223372036854775808", "999999999999999999",
]
CLEAN_RATINGS = ["1", "0", "2.5", "0.0", "10", "00.5", "0.000000000000001", "-1", "-0.0"]
DIRTY_RATINGS = ["1e3", "nan", "inf", "-inf", "abc", " 3", "1_0", ".5", "5.", "", "+1"]


def random_file(rng, n_fields: int) -> bytes:
    """A few lines of `n_fields` clean fields, then, for half the files,
    one to three kinds of change, each either inside the grammar (blank
    lines, CRLF ends, self-loops) or outside it."""
    def pick(pool):
        return pool[rng.integers(len(pool))]

    lines = [
        [pick(CLEAN_IDS), pick(CLEAN_IDS)] + ([pick(CLEAN_RATINGS)] if n_fields == 3 else [])
        for _ in range(rng.integers(0, 8))
    ]
    ending = "\n"
    for _ in range(rng.integers(1, 4) if rng.random() < 0.5 else 0):
        kind = rng.integers(6)
        at = rng.integers(len(lines) + 1)
        if kind == 0 and lines:
            line = lines[min(at, len(lines) - 1)]
            col = rng.integers(len(line))
            line[col] = pick(DIRTY_RATINGS if col == 2 else DIRTY_IDS)
        elif kind == 1:
            lines.insert(at, [pick(["", " ", "\t", "  \t "])])
        elif kind == 2 and lines:
            line = lines[min(at, len(lines) - 1)]
            if len(line) > 1 and rng.random() < 0.5:
                line.pop()
            else:
                line.append(pick(CLEAN_IDS + CLEAN_RATINGS))
        elif kind == 3:
            ending = "\r\n"
        elif kind == 4:
            lines.insert(at, [pick(CLEAN_IDS), pick(CLEAN_IDS), "1", "2"])
        else:
            lines.insert(at, [pick(CLEAN_IDS)] * 2)  # a self-loop or repeat
    text = ending.join("\t".join(line) for line in lines)
    if lines and rng.random() < 0.8:
        text += ending
    return text.encode("utf-8")


class TestArrayPassMatchesLineLoop:
    """On files of every shape the loaders give the test's line loop's
    matrix, or its exception with the same message."""

    def run_files(self, tmp_path, seed, n_fields_of, compare):
        rng = np.random.default_rng(seed)
        refused = 0
        for k in range(300):
            path = tmp_path / f"f{k}.tsv"
            path.write_bytes(random_file(rng, n_fields_of(k)))
            kind, message = compare(path, k)[:2]
            refused += kind is DataError and re.search(r": line [0-9]+ is not ", message) is not None
        # the grammar read and refused each a fair share of the files
        assert 60 < refused < 240

    def test_interactions(self, tmp_path):
        def compare(path, k):
            dims = [{}, {"n_users": 6, "n_items": 12}, {"n_users": 12, "n_items": 6}][k % 3]
            got = outcome(load_interactions, path, **dims)
            assert got == outcome(reference_interactions, path, **dims), path.read_bytes()
            return got

        self.run_files(tmp_path, 17, lambda k: 2 + k % 2, compare)

    def test_social(self, tmp_path):
        def compare(path, k):
            n_users = [None, 6, 12][k % 3]
            got = outcome(load_social, path, n_users)
            assert got == outcome(reference_social, path, n_users), path.read_bytes()
            return got

        self.run_files(tmp_path, 18, lambda k: 2, compare)

    @pytest.mark.parametrize(
        "text",
        ["", "0\t1", "0\t1\n", "0\t1\t1\n2\t3\t0.0", "\n", "0\t1\r\n", "0\t1\n\n",
         "0\t1\n1\t2\t1\n", "12345678901234567890\t1\n", "3\t3\n0\t1\n",
         "9007199254740993\t1\t1\n",  # 2**53 + 1: no float64 holds it
         " \t\r\n\n\t", "0\t1\t-0.0\n", "0\t1\r", "0\t1\r\r\n", "0\r\n1\t2\n"],
    )
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "f.tsv"
        path.write_bytes(text.encode())
        for dims in ({}, {"n_users": 4, "n_items": 4}):
            assert outcome(load_interactions, path, **dims) == outcome(reference_interactions, path, **dims)
        for n_users in (None, 4):
            assert outcome(load_social, path, n_users) == outcome(reference_social, path, n_users)


class TestGrammar:
    """Every input file has one grammar, read in one array pass."""

    @pytest.mark.parametrize("bad", ["+7", " 7", "7_0", "\u0663", "-3", "7 "])
    def test_id_outside_the_grammar_names_its_line(self, tmp_path, bad):
        path = tmp_path / "r.tsv"
        path.write_text(f"0\t1\n2\t{bad}\n")
        with pytest.raises(DataError, match=f"r.tsv: line 2 is not {re.escape(INTERACTIONS)}"):
            load_interactions(path)
        with pytest.raises(DataError, match="r.tsv: line 2 is not user<TAB>user"):
            load_social(path)

    def test_mixed_columns_name_the_first_line_of_the_other_layout(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("0\t1\n1\t2\n3\t4\t1\n")
        with pytest.raises(DataError, match=r"line 3 is not .*: '3\\t4\\t1'$"):
            load_interactions(path)
        path.write_text("0\t1\t1\n1\t2\n")
        with pytest.raises(DataError, match="line 2 is not"):
            load_interactions(path)

    def test_bad_bytes_are_shown_escaped(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes(b"0\t1\n\xff0\t2\n")
        with pytest.raises(DataError, match=r"line 2 is not .*: '\\\\xff0\\t2'$"):
            load_interactions(path)

    def test_rated_file_is_one_array_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "r.tsv"
        path.write_text("0\t0\t4.5\r\n0\t1\t0\n\n1\t0\t-2\n1\t1\t1\n5\t9\t0.0")
        passes, fromstring = [], np.fromstring
        monkeypatch.setattr(np, "fromstring", lambda *a, **k: passes.append(a) or fromstring(*a, **k))
        got = outcome(load_interactions, path)
        assert len(passes) == 1
        assert got == outcome(reference_interactions, path)
        assert got[0] == (2, 2)  # the row rated 0.0 counts toward no dimension

    @pytest.mark.parametrize("piece", [0, 7])
    def test_matching_in_pieces_ends_where_one_match_does(self, tmp_path, monkeypatch, piece):
        # a cut after every line, or after the line that crosses each 7th
        # byte: each file reads, or is refused at its line, as the line
        # loop reads or refuses it
        monkeypatch.setattr(corpus, "GRAMMAR_PIECE", piece)
        rng = np.random.default_rng(19)
        for k in range(200):
            path = tmp_path / f"f{k}.tsv"
            path.write_bytes(random_file(rng, 2 + k % 2))
            got = outcome(load_interactions, path)
            assert got == outcome(reference_interactions, path), path.read_bytes()

    def test_a_long_file_is_matched_in_bounded_memory(self, tmp_path):
        # the grammar's repeated group keeps a frame for each line one
        # match reads, about 1 KB a lists line: one whole-file match of
        # these 20,000 lines traces 22 MB.  Beyond the file's bytes and
        # the columns returned, the read holds under 1 MB.
        rng = np.random.default_rng(5)
        n_users, k = 2000, 10
        items = np.argsort(rng.random((n_users, 300)), axis=1)[:, :k]
        scores = -np.sort(-rng.random((n_users, k)), axis=1)
        path = tmp_path / "lists.tsv"
        pipeline.write_lists(RankedLists(np.arange(n_users), items, scores), path)
        columns = []
        peak = traced_peak(lambda: columns.append(
            corpus.read_columns(path, "lists", (pipeline._LISTS, 3, np.float64))
        ))
        assert columns[0].shape == (3, n_users * k)
        assert peak < path.stat().st_size + columns[0].nbytes + 1_000_000, peak

    @pytest.mark.parametrize("text", ["\n \t\n", " \t", "\r\n\t\r\n"])
    def test_whitespace_alone_is_no_rows(self, tmp_path, text):
        # np.fromstring(sep=" ") reads whitespace alone as one number
        path = tmp_path / "r.tsv"
        path.write_text(text, newline="")
        pairs = corpus.read_columns(path, "pairs", (corpus._PAIRS, 2, np.int64))
        assert pairs.shape == (2, 0) and pairs.dtype == np.int64
        R = load_interactions(path, n_users=3, n_items=4)
        assert (R.n_users, R.n_items, R.nnz) == (3, 4, 0)
        assert load_social(path, n_users=3).nnz == 0


def user_items(R: InteractionMatrix, user: int) -> np.ndarray:
    """Item ids the user interacted with, ascending."""
    m = R.matrix
    return np.sort(m.indices[m.indptr[user] : m.indptr[user + 1]])


def reference_split(R, ratios, seed):
    """The per-user split loop: one permutation per user, sliced."""
    _, r_valid, r_test = ratios
    parts = {"train": ([], []), "valid": ([], []), "test": ([], [])}
    for u in range(R.n_users):
        items = user_items(R, u)
        k = len(items)
        if k < 3 or (r_valid == 0 and r_test == 0):
            parts["train"][0].extend([u] * k)
            parts["train"][1].extend(items)
            continue
        n_test = max(1, math.floor(k * r_test)) if r_test > 0 else 0
        n_valid = max(1, math.floor(k * r_valid)) if r_valid > 0 else 0
        perm = np.random.default_rng([seed, u]).permutation(items)
        for name, piece in (("test", perm[:n_test]), ("valid", perm[n_test : n_test + n_valid]),
                            ("train", perm[n_test + n_valid :])):
            parts[name][0].extend([u] * len(piece))
            parts[name][1].extend(piece)
    shape = (R.n_users, R.n_items)
    return {name: corpus.binary_pairs(u, i, shape) for name, (u, i) in parts.items()}


class TestSplit:
    def test_ratios_must_sum_to_one(self):
        R = im(np.ones((2, 5)))
        with pytest.raises(ConfigError):
            split(R, (0.8, 0.1, 0.2), seed=0)
        with pytest.raises(ConfigError):
            split(R, (0.8, 0.2), seed=0)

    def test_ten_items_split_8_1_1(self):
        R = im(np.ones((1, 10)))
        b = split(R, (0.8, 0.1, 0.1), seed=3)
        assert b.train.nnz == 8 and b.valid.nnz == 1 and b.test.nnz == 1

    def test_single_item_user_all_train(self):
        dense = np.zeros((1, 5))
        dense[0, 2] = 1
        b = split(im(dense), (0.8, 0.1, 0.1), seed=0)
        assert b.train.nnz == 1 and b.valid.nnz == 0 and b.test.nnz == 0

    def test_under_three_items_all_train(self):
        dense = np.zeros((1, 5))
        dense[0, [1, 3]] = 1
        b = split(im(dense), (0.8, 0.1, 0.1), seed=0)
        assert b.train.nnz == 2 and b.valid.nnz == 0 and b.test.nnz == 0

    def test_determinism_bytes(self, rng):
        R = InteractionMatrix(rand_binary_csr(rng, 30, 40, 0.2))
        a = split(R, (0.8, 0.1, 0.1), seed=7)
        b = split(R, (0.8, 0.1, 0.1), seed=7)
        for pa, pb in ((a.train, b.train), (a.valid, b.valid), (a.test, b.test)):
            assert pa.matrix.indptr.tobytes() == pb.matrix.indptr.tobytes()
            assert pa.matrix.indices.tobytes() == pb.matrix.indices.tobytes()
        c = split(R, (0.8, 0.1, 0.1), seed=8)
        assert (
            a.test.matrix.indices.tobytes() != c.test.matrix.indices.tobytes()
            or a.valid.matrix.indices.tobytes() != c.valid.matrix.indices.tobytes()
        )

    @pytest.mark.parametrize(
        "ratios", [(0.8, 0.1, 0.1), (0.6, 0.0, 0.4), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.2, 0.4, 0.4)]
    )
    def test_matches_per_user_permutation_loop(self, rng, ratios):
        dense = (rng.random((60, 25)) < rng.random((60, 1))).astype(np.float64)
        dense[:6] = 0.0  # users with no items, then ones with 1 and 2
        dense[6, 3] = dense[7, [1, 9]] = 1.0
        R = im(dense)
        for seed in (0, 11):
            got, want = split(R, ratios, seed), reference_split(R, ratios, seed)
            for name, m in want.items():
                g = getattr(got, name).matrix
                for a, b in ((g.indptr, m.indptr), (g.indices, m.indices), (g.data, m.data)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_disjoint_union_property(self, rng):
        R = InteractionMatrix(rand_binary_csr(rng, 25, 30, 0.25))
        b = split(R, (0.8, 0.1, 0.1), seed=1)
        total = b.train.matrix + b.valid.matrix + b.test.matrix
        # disjoint: no entry counted twice; union: equals the source
        assert total.max() == 1.0
        assert (total != R.matrix).nnz == 0

    def test_per_user_size_rule_oracle(self, rng):
        R = InteractionMatrix(rand_binary_csr(rng, 40, 50, 0.3))
        b = split(R, (0.8, 0.1, 0.1), seed=5)
        for u in range(40):
            k = len(user_items(R, u))
            got_test = len(user_items(b.test, u))
            got_valid = len(user_items(b.valid, u))
            if k < 3:
                assert got_test == 0 and got_valid == 0
            else:
                assert got_test == max(1, math.floor(k * 0.1))
                assert got_valid == max(1, math.floor(k * 0.1))


class TestDebiasedTest:
    def counts(self, m: InteractionMatrix) -> np.ndarray:
        return np.asarray(m.matrix.sum(axis=0)).ravel().astype(int)

    def test_exact_cap_keeps_and_drops(self):
        dense = np.zeros((6, 3))
        dense[0:5, 0] = 1  # a: 5
        dense[0:5, 1] = 1  # b: 5
        dense[0, 2] = 1    # c: 1
        out = build_debiased_test(im(dense), cap=5, seed=0)
        c = self.counts(out)
        assert list(c) == [5, 5, 0]

    def test_cap_one_all_singletons_identity(self):
        dense = np.eye(3)
        out = build_debiased_test(im(dense), cap=1, seed=0)
        assert (out.matrix != im(dense).matrix).nnz == 0

    def test_mixed_counts_capped_equal(self):
        rng = np.random.default_rng(0)
        n_users = 12
        dense = np.zeros((n_users, 3))
        dense[rng.choice(n_users, 4, replace=False), 0] = 1
        dense[rng.choice(n_users, 7, replace=False), 1] = 1
        dense[rng.choice(n_users, 9, replace=False), 2] = 1
        out = build_debiased_test(im(dense), cap=4, seed=0)
        assert list(self.counts(out)) == [4, 4, 4]

    def test_equal_count_invariant_property(self, rng):
        test = InteractionMatrix(rand_binary_csr(rng, 50, 20, 0.25))
        out = build_debiased_test(test, cap="auto", seed=3)
        c = self.counts(out)
        survivors = c[c > 0]
        assert survivors.size > 0
        assert survivors.max() == survivors.min()

    def test_auto_cap_rule(self):
        counts = np.array([1, 1, 2, 3, 5, 8, 9, 9, 9, 9])
        # survival fractions: cap c keeps items with count >= c
        best = auto_cap(counts, survival=0.3)
        n_items = (counts > 0).sum()
        assert (counts >= best).sum() >= 0.3 * n_items
        assert best == max(
            c
            for c in range(1, counts.max() + 1)
            if (counts >= c).sum() >= 0.3 * n_items
        )

    def test_subset_of_source(self, rng):
        test = InteractionMatrix(rand_binary_csr(rng, 30, 10, 0.3))
        out = build_debiased_test(test, cap=2, seed=1)
        # every kept pair exists in the source test set
        diff = out.matrix - test.matrix
        assert diff.max() <= 0

    def test_empty_test_rejected(self):
        with pytest.raises(DataError):
            build_debiased_test(im(np.zeros((3, 3))), cap=1, seed=0)

    def test_determinism(self, rng):
        test = InteractionMatrix(rand_binary_csr(rng, 30, 10, 0.3))
        a = build_debiased_test(test, cap=2, seed=9)
        b = build_debiased_test(test, cap=2, seed=9)
        assert (a.matrix != b.matrix).nnz == 0


class TestPartitionItems:
    def test_ceil_count(self):
        R = im(np.ones((2, 100)))
        hot = partition_items(R, 0.05)
        assert hot.dtype == bool and hot.shape == (100,)
        assert np.count_nonzero(hot) == 5

    def test_tie_break_and_ceil(self):
        dense = np.zeros((9, 3))
        dense[0:9, 0] = 1  # i0: 9
        dense[0:9, 1] = 1  # i1: 9
        dense[0, 2] = 1    # i2: 1
        hot = partition_items(im(dense), 0.34)  # ceil(1.02) = 2
        assert hot.tolist() == [True, True, False]

    def test_all_equal_counts_id_tiebreak(self):
        R = im(np.ones((3, 4)))
        hot = partition_items(R, 0.5)
        assert np.flatnonzero(hot).tolist() == [0, 1]
        assert np.flatnonzero(~hot).tolist() == [2, 3]

    def test_partition_invariants(self, rng):
        R = InteractionMatrix(rand_binary_csr(rng, 20, 30, 0.2))
        hot = partition_items(R, 0.1)
        counts = np.asarray(R.matrix.sum(axis=0)).ravel()
        assert np.count_nonzero(hot) == math.ceil(0.1 * 30)
        assert counts[hot].min() >= counts[~hot].max()

    def test_fraction_bounds(self):
        R = im(np.ones((2, 4)))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                partition_items(R, bad)

    @pytest.mark.parametrize("n, fraction", [(10, 0.95), (300, 0.999), (1, 0.5)])
    def test_no_tail_item_is_config_error(self, n, fraction):
        # an empty tail has no mean frequency: reports would hold NaN
        with pytest.raises(ConfigError, match=rf"eval\.hot_fraction.*all {n} items"):
            partition_items(im(np.ones((2, n))), fraction)


class TestLongtail:
    # build_social_condition at delta = 1 over an empty graph: the
    # co-interaction counts over R with its hot columns zeroed
    def longtail_copurchase(self, R, hot):
        S = sm(np.zeros((R.n_users, R.n_users)))
        return social_condition(S, R, np.array(hot), 1.0)

    def test_all_tail_identity(self):
        R = im([[1, 0], [1, 1]])
        out = self.longtail_copurchase(R, [False, False])
        np.testing.assert_array_equal(out.toarray(), stacked(partial(copurchase, R), 2).toarray())

    def test_all_hot_zero(self):
        R = im([[1, 0], [1, 1]])
        assert self.longtail_copurchase(R, [True, True]).nnz == 0

    def test_masking(self):
        R = im([[1, 1], [1, 0]])
        out = self.longtail_copurchase(R, [True, False])
        np.testing.assert_array_equal(out.toarray(), [[1, 0], [0, 0]])
        assert out.nnz == 1  # the zeroed products are not stored


class TestCopurchase:
    def test_hand_product(self):
        out = stacked(partial(copurchase, im([[1, 1], [1, 0]])), 2)
        np.testing.assert_array_equal(out.toarray(), [[2, 1], [1, 1]])

    def test_zero(self):
        assert stacked(partial(copurchase, im(np.zeros((3, 4)))), 3).nnz == 0

    def test_identity_rows(self):
        out = stacked(partial(copurchase, im(np.eye(2))), 2)
        np.testing.assert_array_equal(out.toarray(), np.eye(2))

    def test_symmetry_vs_dense_product(self, rng):
        Rl = rand_binary_csr(rng, 50, 80, 0.08)
        out = stacked(partial(copurchase, InteractionMatrix(Rl)), 50).toarray()
        dense = Rl.toarray()
        np.testing.assert_array_equal(out, dense @ dense.T)
        np.testing.assert_array_equal(out, out.T)


class TestSocialCondition:
    R = im([[1, 1], [1, 0]])  # co-interaction counts [[2, 1], [1, 1]]
    all_tail = np.zeros(2, dtype=bool)

    def test_delta_zero_identity(self):
        S = sm([[0, 1], [1, 0]])
        out = social_condition(S, self.R, self.all_tail, 0.0)
        assert (out != S.matrix).nnz == 0

    def test_blend_example(self):
        S = sm([[0, 1], [1, 0]])
        out = social_condition(S, self.R, self.all_tail, 0.5)
        np.testing.assert_array_equal(out.toarray(), [[1, 1.5], [1.5, 0.5]])

    def test_zero_social_gives_scaled_copurchase(self):
        S = sm(np.zeros((2, 2)))
        out = social_condition(S, self.R, self.all_tail, 1.0)
        np.testing.assert_array_equal(out.toarray(), [[2, 1], [1, 1]])

    def test_matches_dense_formula(self, rng):
        S = rand_binary_csr(rng, 15, 15, 0.2)
        R = rand_binary_csr(rng, 15, 12, 0.25)
        hot = rng.random(12) < 0.3
        out = social_condition(SocialMatrix(S), InteractionMatrix(R), hot, 0.7)
        R_l = R.toarray() * ~hot
        want = 0.7 * (R_l @ R_l.T) + S.toarray()
        np.testing.assert_array_equal(out.toarray(), want)
        assert out.nnz == np.count_nonzero(want)


class TestSocialPreference:
    def test_identity_social(self):
        R = im([[1, 0], [1, 1]])
        out = stacked(partial(social_preference, sm(np.eye(2)), R), 2)
        np.testing.assert_array_equal(out.toarray(), R.matrix.toarray())

    def test_hand_product(self):
        out = stacked(partial(social_preference, sm([[0, 1], [1, 0]]), im([[1, 0], [1, 1]])), 2)
        np.testing.assert_array_equal(out.toarray(), [[1, 1], [1, 0]])

    def test_zero(self):
        out = stacked(partial(social_preference, sm(np.zeros((2, 2))), im([[1, 0], [1, 1]])), 2)
        assert out.nnz == 0

    def test_neighbor_counting_property(self, rng):
        S = rand_binary_csr(rng, 15, 15, 0.2)
        S.setdiag(0)
        S.eliminate_zeros()
        R = rand_binary_csr(rng, 15, 12, 0.25)
        out = stacked(partial(social_preference, SocialMatrix(S), InteractionMatrix(R)), 15)
        out = out.toarray()
        Sd, Rd = S.toarray(), R.toarray()
        for i in range(15):
            for j in range(12):
                expected = sum(
                    1 for k in range(15) if Sd[i, k] == 1 and Rd[k, j] == 1
                )
                assert out[i, j] == expected


class TestInvertPreference:
    # build_item_condition's lam * inv + R, inv the reciprocal of the
    # neighbor counts S_bar @ R on their nonzeros: user 0 has no items,
    # and its neighbors 1..4 give the counts [4, 2, 0] over items 0..2
    S_bar = sm(np.vstack(([0, 1, 1, 1, 1], np.eye(5)[1:])))
    R = im([[0, 0, 0], [1, 1, 0], [1, 1, 0], [1, 0, 0], [1, 0, 0]])

    def test_pointwise_values(self):
        out = item_condition(self.S_bar, self.R, 1.0)
        np.testing.assert_array_equal(out[0].toarray(), [[0.25, 0.5, 0.0]])

    def test_involution_on_support(self, rng):
        S_bar = rand_binary_csr(rng, 15, 15, 0.3)
        R = rand_binary_csr(rng, 15, 12, 0.25)
        out = item_condition(SocialMatrix(S_bar), InteractionMatrix(R), 1.0)
        counts = (S_bar @ R).toarray()
        off = (counts > 0) & (R.toarray() == 0)
        assert off.any()
        np.testing.assert_allclose(1.0 / out.toarray()[off], counts[off], rtol=1e-15)

    def test_sparsity_pattern_preserved(self, rng):
        # stored entries are exactly those of R and of the neighbor counts
        S_bar = rand_binary_csr(rng, 10, 10, 0.3)
        R = rand_binary_csr(rng, 10, 8, 0.3)
        out = item_condition(SocialMatrix(S_bar), InteractionMatrix(R), 3.0)
        support = (R.toarray() != 0) | ((S_bar @ R).toarray() != 0)
        assert out.nnz == np.count_nonzero(support)
        assert np.array_equal(out.toarray() != 0, support)


class TestItemCondition:
    S_bar = TestInvertPreference.S_bar

    def test_lambda_zero_identity(self):
        R = TestInvertPreference.R
        out = item_condition(self.S_bar, R, 0.0)
        assert (out != R.matrix).nnz == 0

    def test_inverted_blend(self):
        # user 0 holds no item: its row is lam / counts alone
        out = item_condition(self.S_bar, TestInvertPreference.R, 2.0)
        np.testing.assert_array_equal(out[0].toarray(), [[0.5, 1.0, 0.0]])

    def test_lambda_two_stacks_on_interaction(self):
        # user 1's neighbor set is itself: counts equal its row, so an item
        # it holds gets 2 * 1 / 1 + 1
        out = item_condition(self.S_bar, TestInvertPreference.R, 2.0)
        np.testing.assert_array_equal(out[1].toarray(), [[3.0, 3.0, 0.0]])
