"""Every artifact of a fixed command script, pinned by sha256.

The script runs every command in a temporary directory, with relative
paths, on two datasets: `planted(0)`, and `lastfm_like(0)` under a tiny
model, whose 1853 users run as fifteen 128-row chunks, the last one
partial.  A shorter script (`prepare`, both trainings, guided and
unguided `infer`, a `w_r` sweep) runs `lastfm_like(0)` again at the
benchmark's model (hidden [200], T 20, 2 epochs), so the bytes of the
shape the benchmark runs are pinned too: its products are 200 wide and
its chains 20 steps long, and a change can round differently there than
at the tiny model's widths.  Each file a script leaves, and each
command's stdout, must match its pinned digest in
`pinned_artifacts.json`.  A change meant to keep outputs byte-identical
changes no digest; a change that moves numbers on purpose updates only
the digests it must, file by file.

OpenBLAS rounds some products differently by thread count.  Training
and inference hold it to one thread, so where that hold is taken the
count changes no digest; where it cannot be (another BLAS), products
run at the count found, so the count is still part of the pins: each
script runs in a child process (`python tests/test_artifacts.py NAME`,
which prints the digests as JSON) with OPENBLAS_NUM_THREADS set to
THREADS, whatever the caller's.
The wheel's OpenBLAS is a DYNAMIC_ARCH build that picks its kernel for
the CPU it runs on (`get_corename()`; SkylakeX where the pins were
taken), so a CPU of another family may round differently.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cgsorec
from cgsorec.cli import main
from cgsorec.synth import lastfm_like, planted, write_dataset

PINS = Path(__file__).with_name("pinned_artifacts.json")
BUILD = "NumPy 2.4.6 with OpenBLAS 0.3.31 (its SkylakeX kernel)"
THREADS = 2
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cgsorec.__file__)))

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
WIDE_SCRIPT = [
    ["prepare"],
    ["train", "--model", "cgd", "--verbose"],
    ["train", "--model", "csd", "--verbose"],
    ["infer", "--out", "run/lists-guided.tsv"],
    ["infer", "--out", "run/lists-unguided.tsv", *UNGUIDED],
    ["sweep", "--param", "guidance.w_r", "--values", "0,0.2,0.5,1"],
]

DATASETS = {
    "planted": (
        planted,
        {"T": 5, "hidden_dims": [16], "epochs": 2, "batch_size": 64},
        SCRIPT,
    ),
    "lastfm": (
        lastfm_like,
        {"T": 3, "hidden_dims": [4], "time_embed_dim": 4, "epochs": 2, "batch_size": 400},
        SCRIPT,
    ),
    # bench/workloads.py's MODEL, trained as its inference set-up does
    "lastfm-wide": (
        lastfm_like,
        {"T": 20, "hidden_dims": [200], "time_embed_dim": 16, "learning_rate": 1e-3,
         "epochs": 2, "batch_size": 400},
        WIDE_SCRIPT,
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(name: str, root: Path) -> dict:
    """The digests of every file `name`'s script leaves under `root`, the
    working directory, and of each command's stdout, keyed by path and
    by command line."""
    make, model, script = DATASETS[name]
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
    for argv in script:
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
def test_artifacts_match_their_pins(name, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(THREADS), PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, __file__, name], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    want = json.loads(PINS.read_text())[name]
    changed = [
        f"{part} {key}: {want[part].get(key)} -> {got[part].get(key)}"
        for part in ("files", "stdout")
        for key in sorted(set(want[part]) | set(got[part]))
        if want[part].get(key) != got[part].get(key)
    ]
    assert not changed, (
        f"{len(changed)} artifacts of the {name} script differ from their pins, "
        f"which were taken under {BUILD} at OPENBLAS_NUM_THREADS={THREADS} on 2 CPUs; "
        f"this run set the same count on {os.cpu_count()} CPUs. Another build may "
        "round differently, and so may a CPU of another family, since OpenBLAS picks "
        "its kernel per CPU, or a host with fewer CPUs than threads, since OpenBLAS "
        "runs at most one thread per CPU:\n"
        + "\n".join(changed)
    )


if __name__ == "__main__":
    json.dump(run_script(sys.argv[1], Path.cwd()), sys.stdout)
