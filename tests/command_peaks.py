"""Peak memory of each command of a benchmark round: a report, not a test.

Run from the repository root:

    PYTHONPATH=src python tests/command_peaks.py [WORKLOAD] [SEED]

It builds the workspace of a `bench/workloads.py` workload
(`lastfm_infer` and seed 0 by default): `lastfm_like(SEED)` at the
benchmark's model (hidden [200], T 20) and config.  Then it runs the
workload's set-up and one measured round, each command as
`python -m cgsorec.cli` in a child process of its own, and prints each
command's wall time and peak resident set (`ru_maxrss` of that child,
read with `os.wait4`), in the benchmark's MB.

The benchmark's `peak_rss_mb` is one high-water mark of the process
that runs every set-up and every round, so it cannot say which command
sets it; here each command starts from a fresh interpreter and gets its
own figure.  The commands are the workload's own (its `setup` and
`measure` drive them), so they follow the benchmark if it changes.
About 10 s for `lastfm_infer` on 2 vCPUs.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (found through the path set above)


class ChildWorkspace(workloads.Workspace):
    """A workspace whose commands each run in a child process; every
    command's (argv, wall seconds, peak MB) is kept in `peaks`."""

    def __init__(self, *args):
        super().__init__(*args)
        self.peaks = []

    def cli(self, *argv):
        command = [sys.executable, "-m", "cgsorec.cli", argv[0], self.config, *argv[1:]]
        with tempfile.TemporaryFile() as out:
            start = time.perf_counter()
            child = subprocess.Popen(command, stdout=out)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise workloads.CommandFailed(f"{' '.join(argv)} exited {child.returncode}")
            out.seek(0)
            stdout = out.read().decode()
        self.peaks.append((argv, wall, usage.ru_maxrss / 1024.0))  # Linux reports KiB
        return wall, stdout


def main(argv) -> int:
    name = argv[0] if argv else "lastfm_infer"
    seed = int(argv[1]) if len(argv) > 1 else 0
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="command-peaks-") as root:
        ws = ChildWorkspace(root, seed, workload)
        workload.setup(ws)
        set_up = len(ws.peaks)
        workload.measure(ws)
        for i, (args, wall, peak) in enumerate(ws.peaks):
            shown = " ".join(a.replace(ws.out, "run") for a in args)
            part = "setup" if i < set_up else "round"
            print(f"{name}\t{part}\t{peak:7.1f} MB\t{wall:6.2f} s\t{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
