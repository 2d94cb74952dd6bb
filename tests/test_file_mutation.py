"""Every byte mutation of an input file ends in exit 0 or 3, never in a
traceback: `prepare` reads the interactions and social files, `eval` and
`bias-report` a lists file.  A refusal (exit 3) names the mutated file
and writes nothing.  Each case runs in a fresh directory, where the
files are named by relative paths.
"""

import json
import random

import pytest

from cgsorec.cli import main
from cgsorec.synth import planted, write_dataset

CASES = 40  # mutations per file
# Bytes the file grammars give a meaning to, and some they refuse.
ALPHABET = b"0123456789\t\n\r -.e+x\x00\xff"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """planted(0)'s files and a lists file of every user, as bytes, and a
    prepared workspace (absolute path) for the lists commands."""
    root = tmp_path_factory.mktemp("inputs")
    ds = planted(seed=0)
    write_dataset(ds, root / "r.tsv", root / "s.tsv")
    cfg = {
        "output_dir": str(root / "run"),
        "dataset": {"interactions": str(root / "r.tsv"), "social": str(root / "s.tsv")},
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["prepare", str(root / "cfg.json")]) == 0
    lists = "".join(
        f"{u}\t{(7 * u + 3 * j) % ds.n_items}\t{1.0 - j / 16!r}\n"
        for u in range(ds.n_users) for j in range(10)
    )
    files = {
        "r.tsv": (root / "r.tsv").read_bytes(),
        "s.tsv": (root / "s.tsv").read_bytes(),
        "lists.tsv": lists.encode(),
    }
    return root / "cfg.json", files


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


@pytest.mark.parametrize("name", ["r.tsv", "s.tsv", "lists.tsv"])
def test_mutated_file_exits_0_or_3(tmp_path, capsys, monkeypatch, inputs, name):
    workspace, files = inputs
    rng = random.Random(f"mutation {name}")
    codes = []
    for i in range(CASES):
        case = tmp_path / f"case{i}"
        case.mkdir()
        monkeypatch.chdir(case)
        if name == "lists.tsv":
            (case / name).write_bytes(mutate(files[name], rng))
            command = rng.choice(("eval", "bias-report"))
            argv = [command, str(workspace), "--lists", name, "--out", "report.json"]
        else:
            for other in ("r.tsv", "s.tsv"):
                data = files[other]
                (case / other).write_bytes(mutate(data, rng) if other == name else data)
            cfg = {"output_dir": "run", "dataset": {"interactions": "r.tsv", "social": "s.tsv"}}
            (case / "cfg.json").write_text(json.dumps(cfg))
            argv = ["prepare", "cfg.json"]
        before = sorted(p.name for p in case.iterdir())
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as err:  # noqa: BLE001 - any traceback is the failure shown
            pytest.fail(f"case {i}, {argv[0]} on mutated {name}: {type(err).__name__}: {err}")
        err = capsys.readouterr().err
        assert code in (0, 3), f"case {i}, {argv[0]} on mutated {name}: exit {code}: {err}"
        if code:
            assert name in err, f"case {i}: {err!r} does not name {name}"
            written = sorted(p.name for p in case.iterdir())
            assert written == before, f"case {i}: exit {code} wrote {written}"
        codes.append(code)
    # some mutations are refused, and some leave a file that still reads
    assert 0 < codes.count(3) < CASES, codes
