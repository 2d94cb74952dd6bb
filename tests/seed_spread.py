"""Acceptance criteria 5-8 across seeds: a spread report, not a gate.

Run from the repository root:

    PYTHONPATH=src python tests/seed_spread.py [SEED ...]

For each seed (0 to 4 by default) it trains both acceptance workspaces
(`test_acceptance.py`) on datasets drawn at that seed, under that root
config seed, and prints criteria 5-8 as `test_acceptance.py` computes
them, each with its bound.  Criterion 7 also gets the paired change of
its hot and tail Recall@10 (guided minus unguided) with its standard
error over users, and criterion 8 the per-user paired NDCG@10
difference between its peak w_r and w_r 0, with the standard error of
its mean, so a change can be told from noise.  Tier-1 runs the
criteria at seed 0 only; a value that misses its bound here is a
finding, and the script still exits 0.  About 70 s per seed on 2 vCPUs.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from reference import ndcg_at_k
from test_acceptance import (
    _c7_lists, _c8_lists, _write_c5, _write_c7, lastfm_workspace, planted_workspace,
)


def per_user_ndcg(lists, test, k: int = 10) -> np.ndarray:
    """Each listed user's NDCG@k against `test`, in list order, users
    with no test item left out."""
    rows = test.matrix
    gain = 1.0 / np.log2(np.arange(2, k + 2))
    out = []
    for u, items in zip(lists.users.tolist(), lists.items[:, :k].tolist()):
        relevant = set(rows.indices[rows.indptr[u] : rows.indptr[u + 1]].tolist())
        if relevant:
            dcg = sum(g for g, i in zip(gain, items) if i in relevant)
            out.append(dcg / gain[: min(len(relevant), k)].sum())
    return np.array(out)


def per_user_hits(lists, test, member, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Each listed user's hits in its top k and its count of test items,
    counting only items in `member`, in list order, users with none left
    out."""
    rows = test.matrix
    hits, held = [], []
    for u, items in zip(lists.users.tolist(), lists.items[:, :k].tolist()):
        items_held = rows.indices[rows.indptr[u] : rows.indptr[u + 1]].tolist()
        relevant = {i for i in items_held if member[i]}
        if relevant:
            hits.append(sum(i in relevant for i in items))
            held.append(len(relevant))
    return np.array(hits), np.array(held)


def paired_recall_change(off, on, test, member) -> tuple[float, float, int]:
    """Recall@10 of lists `on` minus that of lists `off` over the same
    users, with its standard error: Recall@10 is hits over test items
    summed across users, so the change is the mean per-user change in
    hits over the mean test-item count, and its SE scales the same way."""
    (h_off, n_off), (h_on, n_on) = (per_user_hits(x, test, member) for x in (off, on))
    assert np.array_equal(n_off, n_on)
    d = h_on - h_off
    return d.sum() / n_on.sum(), d.std(ddof=1) * np.sqrt(len(d)) / n_on.sum(), len(d)


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def report_seed(seed: int, root: Path) -> None:
    for name in ("lastfm", "planted", "c5", "c7"):
        (root / name).mkdir()
    lastfm = lastfm_workspace(root / "lastfm", seed)
    res = _write_c5(lastfm, root / "c5")
    ratio = res.best.r10 / res.base_r10
    print(f"seed {seed} criterion 5: {verdict(ratio >= 1.05)} debiased Recall@10 "
          f"{res.base_r10:.4f} -> {res.best.r10:.4f} ({ratio:.3f}x, need >=1.05x) at {res.best.params}")
    base, best = (json.loads((root / "c5" / f"{name}_report.json").read_text())["freq_hist"]
                  for name in ("base", "best"))
    ok = best["hot_mean_freq"] < base["hot_mean_freq"] and best["tail_mean_freq"] > base["tail_mean_freq"]
    print(f"seed {seed} criterion 6: {verdict(ok)} hot mean frequency "
          f"{base['hot_mean_freq']:.2f} -> {best['hot_mean_freq']:.2f} (must drop), tail "
          f"{base['tail_mean_freq']:.3f} -> {best['tail_mean_freq']:.3f} (must rise)")

    planted = planted_workspace(root / "planted", seed)
    reports = _write_c7(planted, root / "c7")
    off, on = (reports[name]["per_group"] for name in ("base_report.json", "guided_report.json"))
    hot_off, hot_on = off["hot"]["recall"][10], on["hot"]["recall"][10]
    tail_off, tail_on = off["tail"]["recall"][10], on["tail"]["recall"][10]
    ok = hot_on < hot_off and tail_on >= 1.10 * tail_off
    off, on = (lists for _, lists, _ in _c7_lists(planted))
    test = planted.bundle.test
    tail = paired_recall_change(off, on, test, ~planted.hot)
    hot = paired_recall_change(off, on, test, planted.hot)
    print(f"seed {seed} criterion 7: {verdict(ok)} tail Recall@10 {tail_off:.4f} -> {tail_on:.4f} "
          f"({tail_on / tail_off - 1.0:+.1%}, need >=+10%), hot {hot_off:.4f} -> {hot_on:.4f} "
          f"(must drop); paired change tail {tail[0]:+.4f} (SE {tail[1]:.4f}, {tail[2]} users), "
          f"hot {hot[0]:+.4f} (SE {hot[1]:.4f}, {hot[2]} users)")

    curve, per_user = {}, {}
    for w_r, lists in _c8_lists(planted):
        curve[w_r] = ndcg_at_k(lists, planted.bundle.test, 10)
        per_user[w_r] = per_user_ndcg(lists, planted.bundle.test)
    peak = max(curve, key=curve.get)
    diff = per_user[peak] - per_user[0.0]
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    shown = " ".join(f"{w_r}:{v:.4f}" for w_r, v in curve.items())
    print(f"seed {seed} criterion 8: {verdict(0.0 < peak < 0.9)} NDCG@10 peaks at w_r={peak} "
          f"(need 0 < w_r < 0.9); paired gain over w_r 0 {diff.mean():+.4f} "
          f"(SE {se:.4f}, {len(diff)} users); curve {shown}")


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(5))
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix=f"seed-spread-{seed}-") as tmp:
            report_seed(seed, Path(tmp))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
