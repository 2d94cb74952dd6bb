"""Every byte mutation of a split manifest or a checkpoint ends in exit
0, 2, 3 or 4, never in a traceback: `eval`, `infer` and `train --resume`
read `splits.json`, and `infer` and `train --resume` read the CGD
checkpoint's `manifest.json` and `params.bin`.  A refusal names the
mutated file, or a field the mutation changed (exit 4, from a weight
that overflows a chain, names the chain's stage and user instead), and
writes nothing.  Each case runs in a fresh copy of one workspace, under
relative paths.
"""

import json
import random
import shutil

import pytest

from cgsorec.cli import main
from cgsorec.synth import planted, write_dataset

CASES = 24  # mutations per file
# Bytes JSON gives a meaning to, and some it refuses.
ALPHABET = b'0123456789-+.eE"[]{},: \nnulltruefalse\x00\xff'
READERS = {
    "run/splits.json": ("eval", "infer", "train"),
    "run/ckpt-cgd/manifest.json": ("infer", "train"),
    "run/ckpt-cgd/params.bin": ("infer", "train"),
}
COMMANDS = {
    "eval": ["eval", "cfg.json", "--lists", "lists.tsv", "--out", "run/report.json"],
    "infer": ["infer", "cfg.json", "--out", "run/lists-new.tsv"],
    "train": ["train", "cfg.json", "--model", "cgd", "--resume", "--set", "cgd.epochs=3"],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """planted(0), its split manifest, a 2-epoch CGD checkpoint of a tiny
    model and that model's lists, all under relative paths."""
    root = tmp_path_factory.mktemp("workspace")
    write_dataset(planted(seed=0), root / "r.tsv", root / "s.tsv")
    model = {"T": 3, "hidden_dims": [8], "time_embed_dim": 4, "epochs": 2, "batch_size": 64}
    (root / "cfg.json").write_text(json.dumps({
        "seed": 1, "output_dir": "run", "cgd": model,
        "dataset": {"interactions": "r.tsv", "social": "s.tsv"},
    }))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (["prepare"], ["train", "--model", "cgd"], ["infer", "--out", "lists.tsv"]):
            assert main([argv[0], "cfg.json", *argv[1:]]) == 0
    return root


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` with one byte replaced, inserted or deleted, the byte drawn
    from ALPHABET or from any of the 256."""
    at = rng.randrange(len(data))
    byte = bytes([rng.choice(ALPHABET) if rng.random() < 0.8 else rng.randrange(256)])
    kind = rng.choice(("replace", "insert", "delete"))
    if kind == "replace":
        return data[:at] + byte + data[at + 1 :]
    if kind == "insert":
        return data[:at] + byte + data[at:]
    return data[:at] + data[at + 1 :]


def fields(data: bytes, prefix: str = "") -> dict:
    """A JSON object's fields by dotted name, nested objects flattened;
    empty when `data` is no JSON object."""
    try:
        table = json.loads(data) if isinstance(data, bytes) else data
    except ValueError:
        return {}
    if not isinstance(table, dict):
        return {}
    out = {}
    for key, value in table.items():
        if isinstance(value, dict):
            out.update(fields(value, f"{prefix}{key}."))
        out[prefix + key] = value
    return out


def snapshot(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from weights that overflow
@pytest.mark.parametrize("name", sorted(READERS))
def test_mutated_state_exits_0_2_3_or_4(tmp_path, capsys, monkeypatch, workspace, name):
    original = (workspace / name).read_bytes()
    rng = random.Random(f"mutation {name}")
    codes = []
    for i in range(CASES):
        case = tmp_path / f"case{i}"
        shutil.copytree(workspace, case)
        monkeypatch.chdir(case)
        data = mutate(original, rng)
        (case / name).write_bytes(data)
        argv = COMMANDS[rng.choice(READERS[name])]
        before = snapshot(case)
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as err:  # noqa: BLE001 - any traceback is the failure shown
            pytest.fail(f"case {i}, {argv[0]} on mutated {name}: {type(err).__name__}: {err}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), f"case {i}, {argv[0]} on mutated {name}: exit {code}: {err}"
        if code:
            old, new = fields(original), fields(data)
            changed = {k for k in old.keys() | new.keys() if old.get(k) != new.get(k)}
            # a finite weight may still overflow a chain or a training
            # step: exit 4 then names the stage and user, or the epoch
            named = name in err or any(k in err for k in changed) or code == 4
            assert named, f"case {i}: {err!r} names neither {name} nor a changed field"
            assert snapshot(case) == before, f"case {i}: exit {code} wrote output"
        codes.append(code)
    # some mutations are refused, and some leave a file that still reads
    assert 0 < sum(map(bool, codes)) < CASES, codes


@pytest.mark.parametrize(
    "field, value", [("n_users", 10**12), ("n_users", 10**18), ("n_items", 10**18)],
    ids=["n_users-1e12", "n_users-1e18", "n_items-1e18"],
)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_of_another_shape_exits_3(tmp_path, capsys, monkeypatch, workspace,
                                           command, field, value):
    # refused before any split is built: n_users once ended in a
    # MemoryError from the split's row counts, and n_items overflowed the
    # pair keys into "pairs are repeated or out of (user, item) order"
    case = tmp_path / "case"
    shutil.copytree(workspace, case)
    monkeypatch.chdir(case)
    manifest = json.loads((case / "run/splits.json").read_bytes())
    manifest[field] = value
    (case / "run/splits.json").write_text(json.dumps(manifest))
    before = snapshot(case)
    capsys.readouterr()
    assert main(COMMANDS[command]) == 3
    built = {"n_users": 200, "n_items": 300, field: value}
    shape = f"{built['n_users']}x{built['n_items']}"
    err = capsys.readouterr().err
    assert f"split manifest 'run/splits.json' was built for {shape}, data is 200x300" in err
    assert snapshot(case) == before
