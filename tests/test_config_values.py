"""Every config value ends in exit 0, 2, 3 or 4, never in a traceback.

A refusal (exit 2) names the key, and a command that exits non-zero
writes nothing.  The values are set both in the config file and through
`--set`, in a fresh directory per case, so that a relative `output_dir`
lands there.
"""

import copy
import json
import random

import pytest

from cgsorec.cli import main
from cgsorec.config import SCHEMA
from cgsorec.synth import planted, write_dataset

GUIDED = {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2}
ROUTES = ("file", "set")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """planted(0), both checkpoints of a tiny model and a lists file, by
    absolute path, and a config whose output_dir is relative."""
    root = tmp_path_factory.mktemp("inputs")
    write_dataset(planted(seed=0), root / "r.tsv", root / "s.tsv")
    model = {"T": 3, "hidden_dims": [8], "time_embed_dim": 4, "epochs": 1, "batch_size": 64}
    base = {
        "seed": 1,
        "output_dir": str(root / "run"),
        "dataset": {"interactions": str(root / "r.tsv"), "social": str(root / "s.tsv")},
        "cgd": model,
        "csd": dict(model),
        "guidance": GUIDED,
    }
    (root / "cfg.json").write_text(json.dumps(base))
    lists = str(root / "lists.tsv")
    for argv in (["prepare"], ["train", "--model", "cgd"], ["train", "--model", "csd"],
                 ["infer", "--out", lists]):
        assert main([argv[0], str(root / "cfg.json"), *argv[1:]]) == 0
    commands = {
        "prepare": [],
        "infer": ["--ckpt-cgd", str(root / "run" / "ckpt-cgd"),
                  "--ckpt-csd", str(root / "run" / "ckpt-csd"), "--out", "lists.tsv"],
        "eval": ["--lists", lists],
        "bias-report": ["--lists", lists],
    }
    return dict(base, output_dir="run"), commands


def run_case(capsys, monkeypatch, case_dir, inputs, key, text, route, command):
    """Run `command` with `key` set to the JSON `text` through `route`,
    in `case_dir`; returns (exit code, stderr)."""
    base, commands = inputs
    case_dir.mkdir()
    monkeypatch.chdir(case_dir)
    cfg = copy.deepcopy(base)
    overrides = []
    if route == "file":
        *tables, leaf = key.split(".")
        node = cfg
        for table in tables:
            node = node.setdefault(table, {})
        node[leaf] = json.loads(text)
    else:
        overrides = ["--set", f"{key}={text}"]
    (case_dir / "cfg.json").write_text(json.dumps(cfg))
    case = f"{command} with {key}={text} through the {route}"
    capsys.readouterr()
    try:
        code = main([command, "cfg.json", *commands[command], *overrides])
    except Exception as err:  # noqa: BLE001 - any traceback is the failure shown
        pytest.fail(f"{case}: {type(err).__name__}: {err}")
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), f"{case}: exit {code}"
    if code == 2:
        assert key in err, f"{case}: {err!r} does not name the key"
    if code:
        written = sorted(p.name for p in case_dir.iterdir())
        assert written == ["cfg.json"], f"{case}: exit {code} wrote {written}"
    return code, err


def json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return {int: "number", float: "number"}.get(type(value), type(value).__name__)


def mutations(key: str, rng: random.Random) -> list[str]:
    """Another JSON type than the key's default, a huge integer, the
    largest double, an empty string, NaN and a list."""
    default = SCHEMA[key][0]
    others = [t for t in ('"text"', "7", "true", "{}", "null")
              if json_type(json.loads(t)) != json_type(default)]
    return [rng.choice(others), "100000000000000000000", "1e308", '""', "NaN", "[1]"]


def test_every_key_under_mutation(tmp_path, capsys, monkeypatch, inputs):
    """Each key, six values, both routes: 12 cases a key, each running a
    command drawn from a fixed-seed stream."""
    rng = random.Random(16)
    cases = [
        (key, text, route, rng.choice(sorted(inputs[1])))
        for key in SCHEMA for text in mutations(key, rng) for route in ROUTES
    ]
    assert len(cases) == 12 * len(SCHEMA)
    codes = [
        run_case(capsys, monkeypatch, tmp_path / f"case{i}", inputs, *case)[0]
        for i, case in enumerate(cases)
    ]
    # most values are refused as they are read, and some run
    assert codes.count(2) > len(cases) // 2 and codes.count(0) > 0


@pytest.mark.parametrize(
    "key, text",
    [
        ("dataset.social", "{}"),
        ("dataset.interactions", "[1]"),
        ("dataset.n_users", "100000000000000000000"),
        ("dataset.n_users", "1e308"),
        ("output_dir", '""'),
        ("output_dir", "[1]"),
        ("output_dir", "5"),
        ("cgd.T", "100000000000000000"),  # NumPy cannot allocate 10**17 steps
        # nor an index array 10**18 long, which the loader or the split needs
        ("dataset.n_users", "1000000000000000000"),
        ("dataset.n_items", "1000000000000000000"),
    ],
    ids=["social-table", "interactions-list", "n_users-1e20", "n_users-1e308",
         "output_dir-empty", "output_dir-list", "output_dir-number", "T-1e17",
         "n_users-1e18", "n_items-1e18"],
)
@pytest.mark.parametrize("route", ROUTES)
def test_value_that_used_to_crash_or_pass_exits_2(tmp_path, capsys, monkeypatch, inputs,
                                                  key, text, route):
    # each ended in a traceback (exit 1), or exited 0 after writing into a
    # directory named after the value
    code, err = run_case(capsys, monkeypatch, tmp_path / "case", inputs, key, text, route, "prepare")
    assert code == 2
    assert err.startswith(f"config error: {key} has ")


@pytest.mark.parametrize("ratios", ["[1,1,1]", "[-0.2,0.6,0.6]"])
def test_ratios_refused_by_the_split_name_the_key(tmp_path, capsys, monkeypatch, inputs, ratios):
    # the split owns this range, and reads the ratios only at `prepare`
    code, err = run_case(
        capsys, monkeypatch, tmp_path / "case", inputs, "split.ratios", ratios, "set", "prepare"
    )
    assert code == 2
    assert "split.ratios must be 3 non-negatives summing to 1" in err

