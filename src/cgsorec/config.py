"""Experiment configuration: one JSON file, dotted-path overrides, and
derived per-subsystem seeds.

All randomness in a run flows from the single root `seed`; every
subsystem (split, each trainer, inference, debiased-test sampling) gets
its own stream via a stable hash of (root, name), so adding or removing
one stage never shifts another stage's draws.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .guidance import GuidanceConfig
from .schedule import NoiseSchedule, make_schedule
from .trainer import TrainConfig


def derive_seed(root: int, name: str) -> int:
    """Stable non-negative 63-bit seed for a named subsystem."""
    digest = hashlib.sha256(f"{root}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _default_model() -> dict:
    return {
        "T": 20,
        "beta_start": 1e-4,
        "beta_end": 0.02,
        "hidden_dims": [200, 600],
        "time_embed_dim": 16,
        "learning_rate": 5e-4,
        "epochs": 200,
        "batch_size": 400,
        "patience": 20,
        "valid_every": 1,
    }


def default_config() -> dict:
    return {
        "seed": 0,
        "output_dir": "runs/default",
        "dataset": {
            "interactions": None,
            "social": None,
            "n_users": None,
            "n_items": None,
        },
        "split": {
            "ratios": [0.8, 0.1, 0.1],
            "debiased_cap": "auto",
        },
        "cgd": _default_model(),
        "csd": _default_model(),
        "guidance": {
            "eta": 0.0,
            "gamma": 0.0,
            "w_s": 0.0,
            "w_r": 0.0,
            "delta": 0.0,
            "lambda": 0.0,
            "T_inf": None,
            "social_keep": None,
        },
        "eval": {
            "ks": [5, 10],
            "hot_fraction": 0.05,
            "split": "debiased",
        },
        "csd_valid_fraction": 0.1,
    }


def _integer(value) -> int:
    """An integer config value: an int, or a float that holds one.  A bool,
    a fraction or a value of any other type raises, never rounds down."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """A finite real config value: an int or a float.  A bool, a string,
    NaN, an infinity or a value of any other type raises, never parses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        value = float(value)
    except OverflowError as err:  # an int beyond float range
        raise ValueError(f"{value} is out of range") from err
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def _optional_integer(value) -> int | None:
    return None if value is None else _integer(value)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be a table, got {type(value).__name__}")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_set(raw: dict, assignment: str) -> None:
    """Apply one `key.path=value` override in place; value parses as JSON
    when it can, and stays a string otherwise."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key_path, _, value = assignment.partition("=")
    keys = key_path.strip().split(".")
    node = raw
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"unknown config key {key_path!r}")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {key_path!r}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"{key_path!r} is a table, not a value")
    node[leaf] = _coerce(value.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated view over the merged config dict."""

    raw: dict

    def _typed(self, cast, *keys):
        """The value at raw[keys[0]][keys[1]]... through `cast`; a value of
        the wrong type (TypeError or ValueError) is a ConfigError showing it."""
        value = self.raw
        for key in keys:
            value = value[key]
        try:
            return cast(value)
        except (TypeError, ValueError) as err:
            path = ".".join(keys)
            raise ConfigError(f"{path} has the wrong type: {value!r} ({err})") from err

    @property
    def seed(self) -> int:
        s = self.raw["seed"]
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {s!r}")
        return s

    @property
    def output_dir(self) -> str:
        return str(self.raw["output_dir"])

    @property
    def dataset(self) -> dict:
        return self.raw["dataset"]

    @property
    def declared_dims(self) -> tuple[int | None, int | None]:
        """dataset.n_users and dataset.n_items; None is read from the data."""
        return tuple(self._typed(_optional_integer, "dataset", k) for k in ("n_users", "n_items"))

    @property
    def ratios(self) -> tuple[float, float, float]:
        r = self._typed(lambda r: tuple(map(_real, r)), "split", "ratios")
        if len(r) != 3:
            raise ConfigError(f"split.ratios needs 3 entries, got {list(r)}")
        return r

    @property
    def debiased_cap(self) -> int | str:
        cap = self._typed(lambda c: c if c == "auto" else _integer(c), "split", "debiased_cap")
        if cap != "auto" and cap < 1:
            raise ConfigError(f"split.debiased_cap must be 'auto' or at least 1, got {cap}")
        return cap

    @property
    def csd_valid_fraction(self) -> float:
        f = self._typed(_real, "csd_valid_fraction")
        if not 0.0 <= f < 1.0:
            raise ConfigError(f"csd_valid_fraction must be in [0, 1), got {f}")
        return f

    @property
    def eval_ks(self) -> tuple[int, ...]:
        ks = self._typed(lambda ks: tuple(map(_integer, ks)), "eval", "ks")
        if not ks or min(ks) < 1:
            raise ConfigError(f"eval.ks must be positive cutoffs, got {list(ks)}")
        return ks

    @property
    def hot_fraction(self) -> float:
        f = self._typed(_real, "eval", "hot_fraction")
        if not 0.0 < f < 1.0:
            raise ConfigError(f"eval.hot_fraction must be in (0, 1), got {f}")
        return f

    @property
    def eval_split(self) -> str:
        s = self.raw["eval"]["split"]
        if s not in ("debiased", "test"):
            raise ConfigError(f"eval.split must be 'debiased' or 'test', got {s!r}")
        return s

    def model_section(self, kind: str) -> dict:
        kind = kind.lower()
        if kind not in ("cgd", "csd"):
            raise ConfigError(f"model must be 'cgd' or 'csd', got {kind!r}")
        return self.raw[kind]

    def _model_value(self, kind: str, key: str, cast):
        self.model_section(kind)
        return self._typed(cast, kind.lower(), key)

    def schedule(self, kind: str) -> NoiseSchedule:
        return make_schedule(
            self._model_value(kind, "T", _integer),
            self._model_value(kind, "beta_start", _real),
            self._model_value(kind, "beta_end", _real),
        )

    def hidden_dims(self, kind: str) -> tuple[int, ...]:
        return self._model_value(kind, "hidden_dims", lambda ds: tuple(map(_integer, ds)))

    def time_embed_dim(self, kind: str) -> int:
        return self._model_value(kind, "time_embed_dim", _integer)

    def train_config(self, kind: str) -> TrainConfig:
        return TrainConfig(
            learning_rate=self._model_value(kind, "learning_rate", _real),
            epochs=self._model_value(kind, "epochs", _integer),
            seed=derive_seed(self.seed, f"{kind.lower()}-train"),
            batch_size=self._model_value(kind, "batch_size", _integer),
            patience=self._model_value(kind, "patience", _integer),
            valid_every=self._model_value(kind, "valid_every", _integer),
        )

    def guidance(self) -> GuidanceConfig:
        def g(key, cast=_real):
            return self._typed(cast, "guidance", key)

        return GuidanceConfig(
            eta=g("eta"),
            gamma=g("gamma"),
            w_s=g("w_s"),
            w_r=g("w_r"),
            delta=g("delta"),
            lam=g("lambda"),
            T_inf=g("T_inf", _optional_integer),
            social_keep=g("social_keep", _optional_integer),
        )

    def seed_for(self, name: str) -> int:
        return derive_seed(self.seed, name)

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    def validate(self) -> "ExperimentConfig":
        """Touch every typed accessor so bad values fail at parse time; a
        value of the wrong type fails as a ConfigError naming its key."""
        _ = (
            self.seed,
            self.declared_dims,
            self.ratios,
            self.debiased_cap,
            self.csd_valid_fraction,
            self.eval_ks,
            self.hot_fraction,
            self.eval_split,
            self.guidance(),
        )
        for kind in ("cgd", "csd"):
            self.schedule(kind)
            self.train_config(kind)
            self.hidden_dims(kind)
            self.time_embed_dim(kind)
        return self

    def require_files(self) -> None:
        path = self.dataset["interactions"]
        if not path:
            raise ConfigError("dataset.interactions is not set")
        if not os.path.exists(path):
            raise ConfigError(f"dataset.interactions: no such file {path!r}")
        social = self.dataset["social"]
        if social is not None and not os.path.exists(social):
            raise ConfigError(f"dataset.social: no such file {social!r}")


def config_from_dict(user: dict) -> ExperimentConfig:
    return ExperimentConfig(_merge(default_config(), user)).validate()


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
