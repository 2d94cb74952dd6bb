"""End-to-end orchestration shared by the CLI commands and the test rig.

Holds the glue with no math of its own: loading data per config,
materializing/reloading the split manifest, the social-edge holdout used
to early-stop the social model, the two training entry points, joint
scoring, and the list-file format, whose reader is the one place lists
from outside the program are checked.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp

from .config import ExperimentConfig
from .corpus import (
    InteractionMatrix,
    ItemGroups,
    SocialMatrix,
    SplitBundle,
    build_debiased_test,
    load_interactions,
    load_social,
    partition_items,
    split,
)
from .errors import DataError, IntegrityError
from .evaluation import RankedLists, evaluate_lists
from .evaluation import topk_lists  # noqa: F401  (cli ranks through pipeline.topk_lists)
from .guidance import blend, joint_chains
from .trainer import Checkpoint, train_model

MANIFEST_NAME = "splits.json"


def load_dataset(cfg: ExperimentConfig) -> tuple[InteractionMatrix, SocialMatrix | None]:
    cfg.require_files()
    ds = cfg.dataset
    R = load_interactions(
        ds["interactions"], n_users=ds["n_users"], n_items=ds["n_items"]
    )
    S = None
    if ds["social"] is not None:
        S = load_social(
            ds["social"], n_users=R.n_users, symmetrize=bool(ds["symmetrize_social"])
        )
    return R, S


def make_bundle(cfg: ExperimentConfig, R: InteractionMatrix) -> SplitBundle:
    """Split + debiased test, all seeds derived from the root seed."""
    bundle = split(R, cfg.ratios, cfg.seed_for("split"))
    debiased = build_debiased_test(
        bundle.test, cap=cfg.debiased_cap, seed=cfg.seed_for("debiased-test")
    )
    return SplitBundle(
        train=bundle.train,
        valid=bundle.valid,
        test=bundle.test,
        seed=bundle.seed,
        debiased_test=debiased,
    )


def _pairs(m: InteractionMatrix) -> list[list[int]]:
    """(user, item) pairs sorted by user, then item."""
    coo = m.matrix.sorted_indices().tocoo()
    return np.column_stack((coo.row, coo.col)).tolist()


def _from_pairs(pairs, shape) -> InteractionMatrix:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u, i = arr[:, 0], arr[:, 1]
    m = sp.coo_matrix((np.ones(len(u)), (u, i)), shape=shape).tocsr()
    return InteractionMatrix(m)


def resolved_cap(bundle: SplitBundle) -> int:
    """The debiased test's largest per-item count: the cap it was built under."""
    if not bundle.debiased_test.nnz:
        return 0
    return int(np.diff(bundle.debiased_test.matrix.tocsc().indptr).max())


def manifest_dict(cfg: ExperimentConfig, bundle: SplitBundle) -> dict:
    return {
        "seed": bundle.seed,
        "ratios": list(cfg.ratios),
        "n_users": bundle.train.n_users,
        "n_items": bundle.train.n_items,
        "debiased_cap": resolved_cap(bundle),
        "train": _pairs(bundle.train),
        "valid": _pairs(bundle.valid),
        "test": _pairs(bundle.test),
        "debiased_test": _pairs(bundle.debiased_test),
    }


def write_manifest(cfg: ExperimentConfig, bundle: SplitBundle) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        # One dumps: json.dump to a file streams through the pure-Python encoder.
        fh.write(json.dumps(manifest_dict(cfg, bundle), sort_keys=True) + "\n")
    return path


def load_manifest(path) -> SplitBundle:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        shape = (int(d["n_users"]), int(d["n_items"]))
        return SplitBundle(
            train=_from_pairs(d["train"], shape),
            valid=_from_pairs(d["valid"], shape),
            test=_from_pairs(d["test"], shape),
            seed=int(d["seed"]),
            debiased_test=_from_pairs(d["debiased_test"], shape),
        )
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        raise IntegrityError(f"bad split manifest {path!r}: {err}") from err


def ensure_bundle(cfg: ExperimentConfig, R: InteractionMatrix) -> SplitBundle:
    """Reuse the persisted manifest when present, else split afresh."""
    path = os.path.join(cfg.output_dir, MANIFEST_NAME)
    if os.path.exists(path):
        bundle = load_manifest(path)
        if (bundle.train.n_users, bundle.train.n_items) != (R.n_users, R.n_items):
            raise IntegrityError(
                f"manifest {path!r} was built for "
                f"{bundle.train.n_users}x{bundle.train.n_items}, data is "
                f"{R.n_users}x{R.n_items}"
            )
        return bundle
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

    def rows_to_csr(idx, sizes):
        indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        return sp.csr_matrix((np.ones(len(idx)), idx, indptr), shape=(n, n))

    train = rows_to_csr(kept, deg - n_held)
    mask = (train + sp.identity(n, format="csr")).tocsr()
    return train, rows_to_csr(held, n_held), mask


def train_item_model(
    cfg: ExperimentConfig,
    bundle: SplitBundle,
    init=None,
    start_epoch: int = 1,
    best_metric_init: float = -np.inf,
    log=None,
) -> Checkpoint:
    return train_model(
        "CGD",
        bundle.train.matrix,
        cfg.train_config("cgd"),
        cfg.schedule("cgd"),
        hidden_dims=cfg.hidden_dims("cgd"),
        time_embed_dim=cfg.time_embed_dim("cgd"),
        valid_target=bundle.valid.matrix,
        valid_mask=bundle.train.matrix,
        init=init,
        start_epoch=start_epoch,
        best_metric_init=best_metric_init,
        log=log,
    )


def train_social_model(
    cfg: ExperimentConfig,
    S: SocialMatrix,
    init=None,
    start_epoch: int = 1,
    best_metric_init: float = -np.inf,
    log=None,
) -> Checkpoint:
    train_rows, held, mask = S.matrix, None, None
    if cfg.csd_valid_fraction > 0:
        holdout = social_holdout(S, cfg.csd_valid_fraction, cfg.seed_for("csd-holdout"))
        if holdout[1].nnz:  # else no row could spare an edge: train on all of S
            train_rows, held, mask = holdout
    return train_model(
        "CSD",
        train_rows,
        cfg.train_config("csd"),
        cfg.schedule("csd"),
        hidden_dims=cfg.hidden_dims("csd"),
        time_embed_dim=cfg.time_embed_dim("csd"),
        valid_target=held,
        valid_mask=mask,
        init=init,
        start_epoch=start_epoch,
        best_metric_init=best_metric_init,
        log=log,
    )


def chain_args(
    cfg: ExperimentConfig,
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    bundle: SplitBundle,
) -> tuple:
    """guidance.joint_chains' arguments under `cfg`: the one place a config
    becomes guidance knobs, an inference seed and hot/tail item groups."""
    groups = partition_items(bundle.train, cfg.hot_fraction)
    return (
        ckpt_social, ckpt_item, S, bundle.train, groups,
        cfg.guidance(), cfg.seed_for("inference"),
    )


def joint_scores(
    cfg: ExperimentConfig,
    ckpt_social: Checkpoint | None,
    ckpt_item: Checkpoint,
    S: SocialMatrix | None,
    bundle: SplitBundle,
) -> np.ndarray:
    pair = joint_chains(*chain_args(cfg, ckpt_social, ckpt_item, S, bundle))
    return blend(*pair, cfg.guidance().w_r)


def eval_target(cfg: ExperimentConfig, bundle: SplitBundle) -> tuple[InteractionMatrix, ItemGroups]:
    """The test split and the hot/tail item groups `cfg` evaluates against."""
    target = bundle.debiased_test if cfg.eval_split == "debiased" else bundle.test
    return target, partition_items(bundle.train, cfg.hot_fraction)


def eval_report(cfg: ExperimentConfig, lists: RankedLists, bundle: SplitBundle):
    target, groups = eval_target(cfg, bundle)
    return evaluate_lists(
        lists,
        target,
        bundle.train,
        groups,
        cfg.eval_ks,
        config_echo=cfg.raw,
        per_user_recall=cfg.recall_per_user,
    )


def write_lists(lists: RankedLists, path) -> None:
    """`user<TAB>item<TAB>score` lines, each user's block in rank order."""
    users = np.repeat(lists.users, lists.items.shape[1])
    columns = (users.tolist(), lists.items.ravel().tolist(), lists.scores.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\t{}\t{!r}\n".format, *columns)))


def _refuse(users: np.ndarray, bad: np.ndarray, reason: str) -> None:
    if bad.any():
        raise DataError(f"lists: user {users[np.argmax(bad)]}: {reason}")


def read_lists(path, n_users: int, n_items: int) -> RankedLists:
    """The lists in a write_lists file, checked: the only way lists enter.

    Lines are grouped by user (ascending), keeping each user's line order.
    Every list must be as long as the lowest user's, its user must be in
    0..n_users-1, and it must hold distinct ids in 0..n_items-1; a
    DataError names the first user whose list breaks a rule.
    """
    users, items, scores = [], [], []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot read lists file {path!r}: {err}") from err
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                u, item, score = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as err:
                raise DataError(f"{path}:{lineno}: {err}") from err
            users.append(u)
            items.append(item)
            scores.append(score)
    try:
        users, items = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    except OverflowError as err:
        raise DataError(f"{path}: an id does not fit in 64 bits") from err
    order = np.argsort(users, kind="stable")
    owners, sizes = np.unique(users[order], return_counts=True)
    K = int(sizes[0]) if len(sizes) else 0
    _refuse(owners, sizes != K, f"list length differs from the first list's {K}")
    _refuse(owners, (owners < 0) | (owners >= n_users), f"user id outside 0..{n_users - 1}")
    ids = items[order].reshape(len(owners), K)
    _refuse(owners, ((ids < 0) | (ids >= n_items)).any(axis=1), f"item id outside 0..{n_items - 1}")
    ranked = np.sort(ids, axis=1)
    _refuse(owners, (ranked[:, 1:] == ranked[:, :-1]).any(axis=1), "an item is listed twice")
    return RankedLists(owners, ids, np.array(scores, dtype=np.float64)[order].reshape(ids.shape))
