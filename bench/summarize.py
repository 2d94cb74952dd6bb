"""Medians and quartiles of recorded runs, per workload and metric.

    python3 bench/summarize.py [--last N] [--trace 0|1]

Reads bench/results.jsonl (one line per run of bench/run.py) and, for
the last N runs of each workload, prints every metric's median, first
and third quartile (statistics.quantiles, n=4) and the quartile spread
as a share of the median, then the quality figures and the host's CPU
steal over those runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--last", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    runs = defaultdict(list)
    with open(os.path.join(HERE, "results.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["diagnostics"]["trace"] == args.trace:
                runs[rec["diagnostics"]["workload"]].append(rec)
    for workload, recs in sorted(runs.items()):
        recs = recs[-args.last:]
        seeds = [r["diagnostics"]["seed"] for r in recs]
        ok = all(r["result"]["correct"] for r in recs)
        print(f"## {workload}: {len(recs)} runs, seeds {seeds}, all correct: {ok}")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, first in recs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.2%} |")
        quality = defaultdict(list)
        for r in recs:
            for key, value in (r["diagnostics"]["quality"] or {}).items():
                quality[key].append(value)
        for key, values in quality.items():
            print(f"quality {key}: min {min(values):.6g} median "
                  f"{statistics.median(values):.6g} max {max(values):.6g}")
        steal = [r["diagnostics"]["host_ticks"] for r in recs if r["diagnostics"]["host_ticks"]]
        if steal:
            shares = [t["steal"] / max(t["user"], 1) for t in steal]
            print(f"host steal / user ticks per run: "
                  + " ".join(f"{s:.1%}" for s in shares))
        print()


if __name__ == "__main__":
    main()
