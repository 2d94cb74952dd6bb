"""Experiment configuration: one JSON file, dotted-path overrides, and
derived per-subsystem seeds.

`SCHEMA` is the one table of config keys: each dotted key's default and
its reader, which returns the value or raises TypeError or ValueError.
Reading a config reads every key once, through its reader, and a
refusal is a ConfigError naming the key.

All randomness in a run flows from the single root `seed`; every
subsystem (split, each trainer, inference, debiased-test sampling) gets
its own stream via a stable hash of (root, name), so adding or removing
one stage never shifts another stage's draws.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .guidance import GuidanceConfig
from .schedule import NoiseSchedule, make_schedule
from .store import TrainConfig


def derive_seed(root: int, name: str) -> int:
    """Stable non-negative 63-bit seed for a named subsystem."""
    digest = hashlib.sha256(f"{root}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _integer(value) -> int:
    """An int, or a float that holds one, of at most 10**18 in magnitude:
    ids have at most 18 digits, so no dimension can need more.  A bool, a
    fraction or a value of any other type raises, never rounds down."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise TypeError(f"{value!r} is not an integer")
    if abs(value) > 10**18:
        raise ValueError("must be at most 10**18 in magnitude")
    return int(value)


def _real(value) -> float:
    """A finite real: an int or a float.  A bool, a string, NaN, an
    infinity or a value of any other type raises, never parses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        value = float(value)
    except OverflowError as err:  # an int beyond float range
        raise TypeError(f"{value} is out of range") from err
    if not math.isfinite(value):
        raise TypeError(f"{value!r} is not finite")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _list_of(read):
    def reader(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return tuple(map(read, value))
    return reader


def _optional(read):
    return lambda value: None if value is None else read(value)


def _checked(read, ok, rule: str):
    """`read`, then a ValueError stating `rule` unless ok(value)."""
    def reader(value):
        value = read(value)
        if not ok(value):
            raise ValueError(rule)
        return value
    return reader


def _at_least(low: int):
    return _checked(_integer, lambda n: n >= low, f"must be at least {low}")


_PATH = _checked(_string, bool, "must not be empty")
_DIMENSION = _optional(_at_least(1))
_SIZES = _checked(_list_of(_at_least(1)), bool, "must not be empty")


_MODEL = {
    "T": (20, _integer),
    "beta_start": (1e-4, _real),
    "beta_end": (0.02, _real),
    "hidden_dims": ([200, 600], _SIZES),
    "time_embed_dim": (16, _at_least(1)),
    "learning_rate": (5e-4, _real),
    "epochs": (200, _integer),
    "batch_size": (400, _integer),
    "patience": (20, _integer),
    "valid_every": (1, _integer),
}

# dotted key -> (default, reader), in the order default_config lists them.
# GuidanceConfig, TrainConfig and make_schedule hold their own ranges.
SCHEMA = {
    "seed": (0, _at_least(0)),
    "output_dir": ("runs/default", _PATH),
    "dataset.interactions": (None, _optional(_PATH)),
    "dataset.social": (None, _optional(_PATH)),
    "dataset.n_users": (None, _DIMENSION),
    "dataset.n_items": (None, _DIMENSION),
    "split.ratios": (
        [0.8, 0.1, 0.1], _checked(_list_of(_real), lambda r: len(r) == 3, "must hold 3 entries")
    ),
    "split.debiased_cap": ("auto", lambda cap: cap if cap == "auto" else _at_least(1)(cap)),
    **{f"{kind}.{key}": spec for kind in ("cgd", "csd") for key, spec in _MODEL.items()},
    **{f"guidance.{k}": (0.0, _real) for k in ("eta", "gamma", "w_s", "w_r", "delta", "lambda")},
    "guidance.T_inf": (None, _optional(_integer)),
    "guidance.social_keep": (None, _optional(_integer)),
    "eval.ks": ([5, 10], _SIZES),
    "eval.hot_fraction": (0.05, _checked(_real, lambda f: 0.0 < f < 1.0, "must be in (0, 1)")),
    "eval.split": (
        "debiased",
        _checked(_string, lambda s: s in ("debiased", "test"), "must be 'debiased' or 'test'"),
    ),
    "csd_valid_fraction": (0.1, _checked(_real, lambda f: 0.0 <= f < 1.0, "must be in [0, 1)")),
}
TABLES = {key.partition(".")[0] for key in SCHEMA if "." in key}


def _node(raw: dict, key: str) -> tuple[dict, str]:
    """The dict in `raw` that holds `key`'s value, and its name there."""
    table, _, leaf = key.rpartition(".")
    return (raw.setdefault(table, {}) if table else raw), leaf


def default_config() -> dict:
    raw: dict = {}
    for key, (default, _) in SCHEMA.items():
        node, leaf = _node(raw, key)
        node[leaf] = copy.deepcopy(default)
    return raw


def _merge(raw: dict, user: dict, path: str = "") -> dict:
    """`raw` with `user`'s values set in place, each of its keys checked
    against SCHEMA."""
    for key, value in user.items():
        here = path + key
        if here in TABLES and isinstance(value, dict):
            _merge(raw[key], value, here + ".")
        elif here in TABLES:
            raise ConfigError(f"{here!r} must be a table, got {type(value).__name__}")
        elif here in SCHEMA and "." not in key:
            raw[key] = value
        else:
            raise ConfigError(f"unknown config key {here!r}")
    return raw


def apply_set(raw: dict, assignment: str) -> None:
    """Apply one `key.path=value` override in place; value parses as JSON
    when it can, and stays a string otherwise."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, _, text = assignment.partition("=")
    key, text = key.strip(), text.strip()
    if key in TABLES:
        raise ConfigError(f"{key!r} is a table, not a value")
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    node, leaf = _node(raw, key)
    try:
        node[leaf] = json.loads(text)
    except json.JSONDecodeError:
        node[leaf] = text


@dataclass(frozen=True)
class ExperimentConfig:
    """A merged config dict and, once validated, each key's value as its
    reader read it: `cfg["eval.ks"]`."""

    raw: dict
    values: dict = field(default_factory=dict, repr=False, compare=False)

    def __getitem__(self, key: str):
        return self.values[key]

    def _section(self, name: str) -> dict:
        """The read values of one table, by their key within it."""
        prefix = name + "."
        return {k[len(prefix):]: v for k, v in self.values.items() if k.startswith(prefix)}

    def model_section(self, kind: str) -> dict:
        if kind not in ("cgd", "csd"):
            raise ConfigError(f"model must be 'cgd' or 'csd', got {kind!r}")
        return self._section(kind)

    def schedule(self, kind: str) -> NoiseSchedule:
        m = self.model_section(kind)
        return make_schedule(m["T"], m["beta_start"], m["beta_end"])

    def train_config(self, kind: str) -> TrainConfig:
        m = self.model_section(kind)
        return TrainConfig(
            learning_rate=m["learning_rate"],
            epochs=m["epochs"],
            seed=self.seed_for(f"{kind}-train"),
            batch_size=m["batch_size"],
            patience=m["patience"],
            valid_every=m["valid_every"],
        )

    def guidance(self) -> GuidanceConfig:
        g = self._section("guidance")
        g["lam"] = g.pop("lambda")
        return GuidanceConfig(**g)

    def seed_for(self, name: str) -> int:
        return derive_seed(self["seed"], name)

    def validate(self) -> "ExperimentConfig":
        """This config with every SCHEMA key read once; a value its reader
        refuses is a ConfigError naming the key.  The guidance, schedule
        and training configs are built once too, so their range checks run
        here: each of their refusals leads with the field it refuses, and
        is shown under its table."""
        values = {}
        for key, (_, read) in SCHEMA.items():
            node, leaf = _node(self.raw, key)
            value = node[leaf]
            try:
                values[key] = read(value)
            except (TypeError, ValueError) as err:
                problem = "has the wrong type" if isinstance(err, TypeError) else "has a bad value"
                raise ConfigError(f"{key} {problem}: {value!r} ({err})") from err
        cfg = ExperimentConfig(self.raw, values)
        table = "guidance"
        try:
            cfg.guidance()
            for table in ("cgd", "csd"):
                cfg.schedule(table)
                cfg.train_config(table)
        except ConfigError as err:
            raise ConfigError(f"{table}.{err}") from err
        return cfg

    def require_files(self) -> None:
        path = self["dataset.interactions"]
        if path is None:
            raise ConfigError("dataset.interactions is not set")
        if not os.path.isfile(path):
            raise ConfigError(f"dataset.interactions: no such file {path!r}")
        social = self["dataset.social"]
        if social is not None and not os.path.isfile(social):
            raise ConfigError(f"dataset.social: no such file {social!r}")


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read JSON config, apply --set overrides, validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(user, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    merged = _merge(default_config(), user)
    for assignment in overrides:
        apply_set(merged, assignment)
    return ExperimentConfig(merged).validate()
