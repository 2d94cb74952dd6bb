"""Benchmark entry point.

    python3 bench/run.py --workload lastfm_infer --seed 0 --seconds 10 --trace 0

Runs one workload in this process and prints, as its last line, one
JSON object: `correct`, `attempted` and `failed` (counts of CLI
commands) and `metrics`, the end-to-end metrics with --trace 0 or the
per-layer ones with --trace 1.  Without --workload it runs every
workload, each in a fresh process.  The line before the result is a
`diagnostics` object (quality figures, rounds, host CPU steal ticks);
both are appended to bench/results.jsonl.  Exits 1 when a check fails
and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("lastfm_train", "lastfm_infer", "lastfm_sweep")


def cpu_ticks() -> dict | None:
    """user and steal ticks of the host from /proc/stat, read-only."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return {"user": int(fields[1]), "steal": int(fields[8])}


def run_all(args) -> int:
    code = 0
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "cgsorec")):
        print(f"no program source at {src}/cgsorec", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    try:
        import checks
        import workloads
    except ImportError as err:
        print(f"cannot import the program from {ROOT}/src: {err}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    ticks0, start = cpu_ticks(), time.perf_counter()
    try:
        if args.trace:
            out = workloads.run_traced(workload, work_root, args.seed)
        else:
            out = workloads.run(workload, work_root, args.seed, args.seconds)
        result = {"correct": True, "attempted": out["attempted"], "failed": 0,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in out["metrics"].items()}}
    except (workloads.CommandFailed, checks.CheckFailed) as err:
        traceback.print_exc()
        out = None
        failed = int(isinstance(err, workloads.CommandFailed))
        result = {"correct": False, "attempted": 1, "failed": failed, "metrics": {}}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    ticks1 = cpu_ticks()
    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run_s": time.perf_counter() - start,
        "rounds": out and out["rounds"], "quality": out and out["quality"],
        "host_ticks": ticks0 and ticks1 and {k: ticks1[k] - ticks0[k] for k in ticks0},
    }
    with open(os.path.join(HERE, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"diagnostics": diag, "result": result}) + "\n")
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
