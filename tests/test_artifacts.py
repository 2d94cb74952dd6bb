"""Every artifact of a fixed command script, pinned by sha256.

The script runs every command in a temporary directory, with relative
paths, on two datasets: `planted(0)`, and `lastfm_like(0)` under a tiny
model, whose 1853 users run as four 512-row chunks, the last one
partial.  Each file the script leaves, and each command's stdout, must
match its pinned digest in `pinned_artifacts.json`.  A change meant to
keep outputs byte-identical changes no digest; a change that moves
numbers on purpose updates only the digests it must, file by file.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cgsorec.cli import main
from cgsorec.synth import lastfm_like, planted, write_dataset

PINS = Path(__file__).with_name("pinned_artifacts.json")
BUILD = "NumPy 2.4.6 with OpenBLAS 0.3.31 (Haswell kernel)"

GUIDANCE = {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2}
UNGUIDED = [f"--set=guidance.{k}=0" for k in GUIDANCE]

SCRIPT = [
    ["prepare"],
    ["train", "--model", "cgd", "--verbose"],
    ["train", "--model", "csd", "--verbose"],
    ["train", "--model", "cgd", "--resume", "--set", "cgd.epochs=3", "--verbose"],
    ["infer", "--out", "run/lists-guided.tsv"],
    ["infer", "--out", "run/lists-unguided.tsv", "--top", "20", *UNGUIDED],
    ["eval", "--lists", "run/lists-guided.tsv"],
    ["eval", "--lists", "run/lists-unguided.tsv", "--out", "run/report-unguided.json", *UNGUIDED],
    ["bias-report", "--lists", "run/lists-guided.tsv"],
    ["sweep", "--param", "guidance.w_r", "--values", "0,0.2,0.5,1"],
    ["sweep", "--param", "eval.ks", "--values", "[5],[20],[10]"],
]

DATASETS = {
    "planted": (
        planted,
        {"T": 5, "hidden_dims": [16], "epochs": 2, "batch_size": 64},
    ),
    "lastfm": (
        lastfm_like,
        {"T": 3, "hidden_dims": [4], "time_embed_dim": 4, "epochs": 2, "batch_size": 400},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(name: str, root: Path) -> dict:
    """The digests of every file the script leaves under `root`, the
    working directory, and of each command's stdout, keyed by path and
    by command line."""
    make, model = DATASETS[name]
    write_dataset(make(seed=0), "r.tsv", "s.tsv")
    Path("config.json").write_text(json.dumps({
        "seed": 1,
        "output_dir": "run",
        "dataset": {"interactions": "r.tsv", "social": "s.tsv"},
        "cgd": model,
        "csd": model,
        "guidance": GUIDANCE,
    }))
    stdout = {}
    for argv in SCRIPT:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([argv[0], "config.json", *argv[1:]])
        assert code == 0, f"{' '.join(argv)} exited {code}"
        stdout[" ".join(argv)] = sha256(buf.getvalue().encode())
    files = {
        str(path.relative_to(root)): sha256(path.read_bytes())
        for path in sorted(root.rglob("*")) if path.is_file()
    }
    return {"files": files, "stdout": stdout}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_artifacts_match_their_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_script(name, tmp_path)
    want = json.loads(PINS.read_text())[name]
    changed = [
        f"{part} {key}: {want[part].get(key)} -> {got[part].get(key)}"
        for part in ("files", "stdout")
        for key in sorted(set(want[part]) | set(got[part]))
        if want[part].get(key) != got[part].get(key)
    ]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "<unset>")
    assert not changed, (
        f"{len(changed)} artifacts of the {name} script differ from their pins, "
        f"which were taken under {BUILD} at its default of 2 BLAS threads on 2 CPUs; "
        f"this run has OPENBLAS_NUM_THREADS={threads} on {os.cpu_count()} CPUs. "
        "Another build or another BLAS thread count may round differently:\n"
        + "\n".join(changed)
    )
