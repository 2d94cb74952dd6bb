"""The program's state files, each with its one writer and one reader.

A checkpoint directory holds `manifest.json` (the model's shape and tag,
its schedule, its training config, its epoch and validation metric) and
`params.bin` (every tensor as little-endian float64, in the order W0,
b0, W1, b1, ...).  `splits.json` holds the split manifest: the shape,
seed, ratios and debiased cap, and each split's (user, item) pairs.
Each reader checks every field it holds by its JSON type, converting
none, and each refusal names the file.  The
records a checkpoint serializes, TrainConfig and Checkpoint, live here,
so a module that reads one imports no trainer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import InteractionMatrix, SplitBundle, binary_rows
from .denoiser import DenoiserParams, param_shapes
from .errors import ConfigError, DataError, NumericError
from .schedule import NoiseSchedule, make_schedule

CHECKPOINT_FORMAT = 1
MANIFEST_NAME = "splits.json"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    seed: int
    batch_size: int = 400
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_hat: float = 1e-8
    patience: int = 20
    valid_every: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("epochs", "batch_size", "patience", "valid_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    valid_metric: float | None


@dataclass
class Checkpoint:
    """A trained denoiser: what `infer` reads and what `train_model`
    resumes from.  `history` lists every epoch of the run that returned
    it; it is not saved, so a loaded checkpoint's history is empty."""

    params: DenoiserParams
    sched: NoiseSchedule
    config: TrainConfig
    epoch: int
    valid_metric: float
    history: list[EpochStats] = field(default_factory=list)


def non_finite(params: DenoiserParams) -> str | None:
    """The name of params' first tensor holding a non-finite value."""
    named = [(f"{kind}[{i}]", a) for kind in ("weights", "biases")
             for i, a in enumerate(getattr(params, kind))]
    return next((name for name, a in named if not np.isfinite(a).all()), None)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write manifest.json + params.bin (little-endian f64) into `path`."""
    os.makedirs(path, exist_ok=True)
    # declaration order: W0, b0, W1, b1, ...
    tensors = [a for pair in zip(ckpt.params.weights, ckpt.params.biases) for a in pair]
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_tag": ckpt.params.model_tag,
        "layer_dims": list(ckpt.params.layer_dims),
        "time_embed_dim": ckpt.params.time_embed_dim,
        "tensor_shapes": [list(a.shape) for a in tensors],
        "schedule": {"T": ckpt.sched.T, "beta_start": float(ckpt.sched.beta[0]),
                     "beta_end": float(ckpt.sched.beta[-1])},
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "valid_metric": ckpt.valid_metric,
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, "params.bin"), "wb") as fh:
        for a in tensors:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _json(value, name: str, kind, nan: bool = False):
    """`value` if its JSON type is `kind`, else a TypeError naming the
    field `name`.  int is an integer, never a bool, a fraction or a
    string; float is a finite number (NaN too when `nan`), read as a
    float."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"{name} is not of type {kind.__name__}: {value!r}")
    if kind is float:
        value = float(value)
        if not (math.isfinite(value) or (nan and math.isnan(value))):
            raise TypeError(f"{name} is not finite: {value!r}")
    return value


def _list(value, name: str, kind=int) -> tuple:
    """The JSON list `value`, each item read as `kind`."""
    return tuple(_json(v, f"{name}[{i}]", kind) for i, v in enumerate(_json(value, name, list)))


def _table(manifest: dict, name: str, kinds: dict, build):
    """build(**manifest[name]), that object holding exactly the fields of
    `kinds` (field -> JSON type), each read by its type; every refusal,
    build's included, names its field as name.field."""
    table = _json(manifest[name], name, dict)
    for fault, keys in ("unknown", table.keys() - kinds), ("missing", kinds.keys() - table):
        if keys:
            raise TypeError(f"{name} has {fault} fields {sorted(f'{name}.{k}' for k in keys)}")
    try:
        return build(**{k: _json(v, f"{name}.{k}", kinds[k]) for k, v in table.items()})
    except ConfigError as err:  # build's refusals lead with the field
        raise ValueError(f"{name}.{err}") from err


def load_checkpoint(path, model_tag: str | None = None) -> Checkpoint:
    """Rebuild a checkpoint; forward outputs are bitwise equal post-load.

    Each manifest field is read by its JSON type and never converted.  A
    field that is missing, of the wrong type or invalid (a format other
    than CHECKPOINT_FORMAT, or a schedule or training config the program
    would refuse) raises DataError naming it, and so does a model
    tag other than `model_tag` when one is given; a tensor holding a
    non-finite value raises NumericError naming it.  Every refusal names
    the file.  The loaded checkpoint's history is empty.
    """
    manifest_path = os.path.join(path, "manifest.json")
    blob_path = os.path.join(path, "params.bin")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:  # a byte that is not UTF-8 is a ValueError
        raise DataError(f"unreadable manifest {manifest_path}: {err}") from err
    try:
        if _json(manifest["format"], "format", int) != CHECKPOINT_FORMAT:
            raise ValueError(f"format {manifest['format']} is not {CHECKPOINT_FORMAT}")
        layer_dims = _list(manifest["layer_dims"], "layer_dims")
        time_embed_dim = _json(manifest["time_embed_dim"], "time_embed_dim", int)
        shapes = _json(manifest["tensor_shapes"], "tensor_shapes", list)
        shapes = [_list(s, f"tensor_shapes[{i}]") for i, s in enumerate(shapes)]
        tag = _json(manifest["model_tag"], "model_tag", str)
        kinds = {"T": int, "beta_start": float, "beta_end": float}
        sched = _table(manifest, "schedule", kinds, make_schedule)
        kinds = {f.name: {"int": int, "float": float}[f.type] for f in fields(TrainConfig)}
        cfg = _table(manifest, "config", kinds, TrainConfig)
        epoch = _json(manifest["epoch"], "epoch", int)
        if epoch < 0:  # the epoch streams are seeded by it
            raise ValueError(f"epoch {epoch} is negative")
        valid_metric = _json(manifest["valid_metric"], "valid_metric", float, nan=True)
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise DataError(f"manifest missing/invalid field in {manifest_path}: {err}") from err

    if model_tag is not None and tag != model_tag:
        raise DataError(f"{manifest_path}: model_tag {tag!r} where {model_tag!r} belongs")
    if len(layer_dims) < 3 or shapes != param_shapes(layer_dims, time_embed_dim):
        raise DataError(
            f"{manifest_path}: tensor_shapes {shapes} inconsistent with layer_dims {layer_dims}"
        )
    ends = np.cumsum([np.prod(s) for s in shapes])
    total = int(ends[-1])
    try:
        raw = np.fromfile(blob_path, dtype="<f8")
    except OSError as err:
        raise DataError(f"unreadable params blob {blob_path}: {err}") from err
    if raw.size != total:
        raise DataError(f"{blob_path} holds {raw.size} doubles, manifest expects {total}")
    tensors = [a.reshape(s).astype(np.float64) for a, s in zip(np.split(raw, ends[:-1]), shapes)]
    params = DenoiserParams(layer_dims, time_embed_dim, tag, tensors[0::2], tensors[1::2])
    name = non_finite(params)
    if name is not None:  # weights are shared, so one bad value reaches every user's output
        chain = {"CGD": "item", "CSD": "social"}.get(tag, tag)
        raise NumericError(
            f"non-finite {name} in {tag} checkpoint {blob_path}: every "
            f"{chain} chain output would be non-finite, first at user 0"
        )
    return Checkpoint(params, sched, cfg, epoch, valid_metric)


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
    return int(np.diff(bundle.debiased_test.matrix.tocsc().indptr).max(initial=0))


def write_manifest(cfg, bundle: SplitBundle) -> str:
    """Write `bundle` as MANIFEST_NAME under cfg's output_dir; its path."""
    os.makedirs(cfg["output_dir"], exist_ok=True)
    path = os.path.join(cfg["output_dir"], MANIFEST_NAME)
    manifest = {
        "seed": bundle.seed,
        "ratios": list(bundle.ratios),
        "n_users": bundle.train.n_users,
        "n_items": bundle.train.n_items,
        "debiased_cap": resolved_cap(bundle),
        "train": _pairs(bundle.train),
        "valid": _pairs(bundle.valid),
        "test": _pairs(bundle.test),
        "debiased_test": _pairs(bundle.debiased_test),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # One dumps: json.dump to a file streams through the pure-Python encoder.
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    return path


def load_manifest(path, shape) -> SplitBundle:
    """The split bundle a write_manifest file holds, for data of `shape`
    (n_users, n_items); a manifest of another shape is refused before any
    split is built.  Its scalars are read by their JSON type, never
    converted: the shape, the seed and the cap as integers, the ratios as
    three numbers.  Every debiased test pair must be a test pair, and the
    cap the debiased test's largest per-item count."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        built = (_json(d["n_users"], "n_users", int), _json(d["n_items"], "n_items", int))
        if built != tuple(shape):
            raise DataError(
                f"split manifest {path!r} was built for {built[0]}x{built[1]}, "
                f"data is {shape[0]}x{shape[1]}"
            )
        seed = _json(d["seed"], "seed", int)
        ratios = _list(d["ratios"], "ratios", float)
        if len(ratios) != 3:
            raise ValueError(f"ratios must be 3 numbers, got {d['ratios']!r}")
        cap = _json(d["debiased_cap"], "debiased_cap", int)
        names = ("train", "valid", "test", "debiased_test")
        parts = {name: _from_pairs(name, d[name], shape) for name in names}
        keys = np.sort(np.concatenate([parts[name][1] for name in names[:3]]))
        shared = keys[1:][keys[1:] == keys[:-1]]
        if len(shared):
            user, item = divmod(int(shared[0]), shape[1])
            raise ValueError(f"pair [{user}, {item}] is in more than one of train, valid and test")
        loose = parts["debiased_test"][1][~np.isin(parts["debiased_test"][1], parts["test"][1])]
        if len(loose):
            user, item = divmod(int(loose[0]), shape[1])
            raise ValueError(f"debiased_test pair [{user}, {item}] is not a test pair")
        bundle = SplitBundle(
            **{name: part for name, (part, _) in parts.items()}, seed=seed, ratios=ratios
        )
        largest = resolved_cap(bundle)
        if cap != largest:
            raise ValueError(f"debiased_cap {cap} != debiased_test's largest item count {largest}")
        return bundle
    except (OSError, json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as err:
        raise DataError(f"bad split manifest {path!r}: {err}") from err
