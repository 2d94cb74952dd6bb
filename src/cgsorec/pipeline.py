"""End-to-end orchestration shared by the CLI commands and the test rig.

Holds the glue with no math of its own: loading data per config,
materializing/reloading the split manifest, the social-edge holdout used
to early-stop the social model, the two training entry points, the one
block-by-block ranking of infer and validation, and the list-file format,
whose reader is the one place lists from outside the program are checked.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from . import guidance
from .config import ExperimentConfig
from .corpus import (
    REAL_ID,
    InteractionMatrix,
    SocialMatrix,
    SplitBundle,
    binary_rows,
    build_debiased_test,
    load_interactions,
    load_social,
    partition_items,
    read_columns,
    split,
    tsv_grammar,
)
from .errors import ConfigError, DataError, IntegrityError
from .evaluation import RankedLists, evaluate_lists, recall_at_k, topk_lists
from .guidance import joint_chains
from .trainer import Checkpoint, _json, train_model

MANIFEST_NAME = "splits.json"


@contextmanager
def _dimensions(cfg: ExperimentConfig):
    """Inside the block, NumPy's refusal to allocate an array as long as
    a dimension is a ConfigError naming the larger declared dimension, or
    a DataError naming the interactions file whose ids set them."""
    try:
        yield
    except MemoryError as err:
        declared = [k for k in ("dataset.n_users", "dataset.n_items") if cfg[k] is not None]
        if declared:
            key = max(declared, key=lambda k: cfg[k])
            raise ConfigError(f"{key} has a bad value: {cfg[key]} ({err})") from err
        path = cfg["dataset.interactions"]
        raise DataError(f"{path}: ids too large to allocate ({err})") from err


def load_interaction_data(cfg: ExperimentConfig) -> InteractionMatrix:
    """The interactions file alone, for the commands that never read the
    social graph; both input files must still exist."""
    cfg.require_files()
    with _dimensions(cfg):
        return load_interactions(
            cfg["dataset.interactions"], cfg["dataset.n_users"], cfg["dataset.n_items"]
        )


def load_dataset(cfg: ExperimentConfig) -> tuple[InteractionMatrix, SocialMatrix | None]:
    R = load_interaction_data(cfg)
    social = cfg["dataset.social"]
    return R, None if social is None else load_social(social, n_users=R.n_users)


def make_bundle(cfg: ExperimentConfig, R: InteractionMatrix) -> SplitBundle:
    """Split + debiased test, all seeds derived from the root seed."""
    with _dimensions(cfg):
        bundle = split(R, cfg["split.ratios"], cfg.seed_for("split"))
        debiased = build_debiased_test(
            bundle.test, cap=cfg["split.debiased_cap"], seed=cfg.seed_for("debiased-test")
        )
    return replace(bundle, debiased_test=debiased)


def _pairs(m: InteractionMatrix) -> list[list[int]]:
    """(user, item) pairs sorted by user, then item."""
    coo = m.matrix.sorted_indices().tocoo()
    return np.column_stack((coo.row, coo.col)).tolist()


def _from_pairs(name: str, pairs, shape) -> tuple[InteractionMatrix, np.ndarray]:
    """One split's matrix, from its [user, item] pairs, and its keys
    user * n_items + item; a ValueError unless every pair is two JSON
    integers in range and the keys strictly increase, as write_manifest
    lists them (so no pair is listed twice)."""
    if set(map(len, pairs)) - {2}:
        raise ValueError(f"{name}: every pair must be [user, item]")
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(type, flat)) - {int}:
        raise ValueError(f"{name}: every id must be an integer")
    flat = np.array(flat, dtype=np.int64)
    users, items = flat[0::2], flat[1::2]
    n_users, n_items = shape
    if np.any((users < 0) | (users >= n_users) | (items < 0) | (items >= n_items)):
        raise ValueError(f"{name}: a pair lies outside the {n_users}x{n_items} matrix")
    keys = users * n_items + items
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError(f"{name}: pairs are repeated or out of (user, item) order")
    m = binary_rows(items, np.bincount(users, minlength=n_users), n_items)
    return InteractionMatrix(m), keys


def resolved_cap(bundle: SplitBundle) -> int:
    """The debiased test's largest per-item count: the cap it was built under."""
    if not bundle.debiased_test.nnz:
        return 0
    return int(np.diff(bundle.debiased_test.matrix.tocsc().indptr).max())


def manifest_dict(cfg: ExperimentConfig, bundle: SplitBundle) -> dict:
    return {
        "seed": bundle.seed,
        "ratios": list(cfg["split.ratios"]),
        "n_users": bundle.train.n_users,
        "n_items": bundle.train.n_items,
        "debiased_cap": resolved_cap(bundle),
        "train": _pairs(bundle.train),
        "valid": _pairs(bundle.valid),
        "test": _pairs(bundle.test),
        "debiased_test": _pairs(bundle.debiased_test),
    }


def write_manifest(cfg: ExperimentConfig, bundle: SplitBundle) -> str:
    os.makedirs(cfg["output_dir"], exist_ok=True)
    path = os.path.join(cfg["output_dir"], MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        # One dumps: json.dump to a file streams through the pure-Python encoder.
        fh.write(json.dumps(manifest_dict(cfg, bundle), sort_keys=True) + "\n")
    return path


def load_manifest(path, shape) -> SplitBundle:
    """The split bundle a write_manifest file holds, for data of `shape`
    (n_users, n_items); a manifest of another shape is refused before any
    split is built.  Its shape and seed are read by their JSON type, never
    converted."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        built = (_json(d["n_users"], "n_users", int), _json(d["n_items"], "n_items", int))
        if built != tuple(shape):
            raise IntegrityError(
                f"split manifest {path!r} was built for {built[0]}x{built[1]}, "
                f"data is {shape[0]}x{shape[1]}"
            )
        names = ("train", "valid", "test", "debiased_test")
        parts = {name: _from_pairs(name, d[name], shape) for name in names}
        keys = np.sort(np.concatenate([parts[name][1] for name in names[:3]]))
        shared = keys[1:][keys[1:] == keys[:-1]]
        if len(shared):
            user, item = divmod(int(shared[0]), shape[1])
            raise ValueError(f"pair [{user}, {item}] is in more than one of train, valid and test")
        seed = _json(d["seed"], "seed", int)
        return SplitBundle(**{name: part for name, (part, _) in parts.items()}, seed=seed)
    except (OSError, json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as err:
        raise IntegrityError(f"bad split manifest {path!r}: {err}") from err


def ensure_bundle(cfg: ExperimentConfig, R: InteractionMatrix) -> SplitBundle:
    """Reuse the persisted manifest when present, else split afresh."""
    path = os.path.join(cfg["output_dir"], MANIFEST_NAME)
    if os.path.exists(path):
        return load_manifest(path, (R.n_users, R.n_items))
    return make_bundle(cfg, R)


def social_holdout(
    S: SocialMatrix, fraction: float, seed: int
) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Hold out a per-user fraction of neighbor entries for validation.

    A user with degree d >= 2 holds out max(1, floor(d * fraction)) of its
    neighbors, drawn from its own stream; S's rows are canonical (sorted,
    no duplicates).  Returns (train_rows, held_rows, rank_mask); the mask
    is the train rows plus the diagonal, since a user must never rank
    itself.
    """
    m, n = S.matrix, S.n_users
    deg = np.diff(m.indptr)
    n_held = np.zeros_like(deg)
    if fraction > 0.0:
        n_held[deg >= 2] = np.maximum(1, np.floor(deg[deg >= 2] * fraction))
    held = [
        np.sort(np.random.default_rng([seed, u]).choice(
            m.indices[m.indptr[u] : m.indptr[u + 1]], size=n_held[u], replace=False
        ))
        for u in np.flatnonzero(n_held).tolist()
    ]
    held = np.concatenate(held) if held else np.empty(0, dtype=m.indices.dtype)
    keys = np.repeat(np.arange(n), deg) * n + m.indices
    kept = m.indices[~np.isin(keys, np.repeat(np.arange(n), n_held) * n + held)]
    train = binary_rows(kept, deg - n_held, n)
    mask = (train + sp.identity(n, format="csr")).tocsr()
    return train, binary_rows(held, n_held, n), mask


def train_item_model(
    cfg: ExperimentConfig, bundle: SplitBundle, resume: Checkpoint | None = None, log=None
) -> Checkpoint:
    train = bundle.train.matrix
    return _train(cfg, "cgd", train, bundle.valid.matrix, train, resume, log)


def train_social_model(
    cfg: ExperimentConfig, S: SocialMatrix, resume: Checkpoint | None = None, log=None
) -> Checkpoint:
    train_rows, held, mask = S.matrix, None, None
    fraction = cfg["csd_valid_fraction"]
    if fraction > 0:
        holdout = social_holdout(S, fraction, cfg.seed_for("csd-holdout"))
        if holdout[1].nnz:  # else no row could spare an edge: train on all of S
            train_rows, held, mask = holdout
    return _train(cfg, "csd", train_rows, held, mask, resume, log)


def _train(cfg: ExperimentConfig, kind: str, rows, valid_target, valid_mask, resume, log):
    """train_model on `rows` under cfg's `kind` ("cgd" or "csd") section."""
    train_cfg, sched = cfg.train_config(kind), cfg.schedule(kind)
    validate = None if valid_target is None else recall_validator(
        rows, valid_target, valid_mask, sched, train_cfg.seed
    )
    return train_model(
        kind.upper(), rows, train_cfg, sched,
        hidden_dims=cfg[f"{kind}.hidden_dims"], time_embed_dim=cfg[f"{kind}.time_embed_dim"],
        validate=validate, resume=resume, log=log,
    )


def _ranked(chains, n: int, K: int, mask, w: float = 0.0) -> RankedLists:
    """Users 0..n-1's top-K lists, mask entries excluded.  chains(reduce)
    hands reduce each block (span, a, b) of a chain pair as it is made,
    and the block is ranked then, b blended in by w: no chain is whole."""
    lists = RankedLists(np.arange(n), np.empty((n, K), dtype=np.intp), np.empty((n, K)))

    def rank(span, a, b):
        part = topk_lists(a, K, mask=mask[span], other=b, w=w)
        lists.items[span], lists.scores[span] = part.items, part.scores

    chains(rank)
    return lists


def recall_validator(rows, target, mask, sched, seed: int):
    """train_model's validate: the Recall@10 against `target` of `rows`'
    unguided chains on the validation stream, `mask` entries excluded."""

    def validate(params) -> float:
        stage = guidance.STAGE_VALID
        chains = partial(guidance.unconditional_scores, params, sched, rows, sched.T, seed, stage)
        return recall_at_k(_ranked(chains, rows.shape[0], 10, mask), target)

    return validate


def chain_args(
    cfg: ExperimentConfig,
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    bundle: SplitBundle,
) -> tuple:
    """guidance.joint_chains' arguments under `cfg`: the one place a config
    becomes guidance knobs, an inference seed and the hot-item mask."""
    hot = partition_items(bundle.train, cfg["eval.hot_fraction"])
    return (
        ckpt_social, ckpt_item, S, bundle.train, hot,
        cfg.guidance(), cfg.seed_for("inference"),
    )


def joint_lists(
    cfg: ExperimentConfig,
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    bundle: SplitBundle,
    K: int,
) -> RankedLists:
    """Every user's top-K list of the two item chains blended by w_r,
    train items masked, ranked block by block (_ranked)."""
    chains = partial(joint_chains, *chain_args(cfg, ckpt_social, ckpt_item, S, bundle))
    return _ranked(chains, bundle.train.n_users, K, bundle.train.matrix, cfg.guidance().w_r)


def eval_target(cfg: ExperimentConfig, bundle: SplitBundle) -> tuple[InteractionMatrix, np.ndarray]:
    """The test split and the hot-item mask `cfg` evaluates against."""
    target = bundle.debiased_test if cfg["eval.split"] == "debiased" else bundle.test
    return target, partition_items(bundle.train, cfg["eval.hot_fraction"])


def eval_report(cfg: ExperimentConfig, lists: RankedLists, bundle: SplitBundle):
    target, hot = eval_target(cfg, bundle)
    return evaluate_lists(lists, target, bundle.train, hot, cfg["eval.ks"], config_echo=cfg.raw)


def write_lists(lists: RankedLists, path) -> None:
    """`user<TAB>item<TAB>score` lines, each user's block in rank order."""
    users = np.repeat(lists.users, lists.items.shape[1])
    columns = (users.tolist(), lists.items.ravel().tolist(), lists.scores.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\t{}\t{!r}\n".format, *columns)))


# write_lists' lines: the score is a float repr.  A signed id is read, so
# that the range check names the user who holds it.
_LIST_ID = b"-?" + REAL_ID
_LISTS = tsv_grammar(_LIST_ID, _LIST_ID, rb"(?:-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf)|nan)")


def read_lists(path, n_users: int, n_items: int) -> RankedLists:
    """The lists in a write_lists file, checked: the only way lists enter.

    Lines are grouped by user (ascending), keeping each user's line order.
    Every list must be as long as the lowest user's, its user must be in
    0..n_users-1, and it must hold distinct ids in 0..n_items-1; a
    DataError names the file and the first user whose list breaks a rule.
    """
    try:
        columns = read_columns(
            path, "user<TAB>item<TAB>score", DataError, (_LISTS, 3, np.float64)
        )
    except OSError as err:
        raise DataError(f"cannot read lists file {path!r}: {err}") from err
    users, items = columns[:2].astype(np.int64)
    scores = columns[2]
    order = np.argsort(users, kind="stable")
    owners, sizes = np.unique(users[order], return_counts=True)

    def refuse(bad: np.ndarray, reason: str) -> None:
        if bad.any():
            raise DataError(f"{path}: user {owners[np.argmax(bad)]}: {reason}")

    K = int(sizes[0]) if len(sizes) else 0
    refuse(sizes != K, f"list length differs from the first list's {K}")
    refuse((owners < 0) | (owners >= n_users), f"user id outside 0..{n_users - 1}")
    ids = items[order].reshape(len(owners), K)
    refuse(((ids < 0) | (ids >= n_items)).any(axis=1), f"item id outside 0..{n_items - 1}")
    ranked = np.sort(ids, axis=1)
    refuse((ranked[:, 1:] == ranked[:, :-1]).any(axis=1), "an item is listed twice")
    return RankedLists(owners, ids, scores[order].reshape(ids.shape))
