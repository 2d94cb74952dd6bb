"""Output checks: the program's files against the oracle and against
properties of the method.  Each check raises CheckFailed with the first
disagreement it finds; on success it returns the run's quality figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import oracle

K = 10
HOT_FRACTION = 0.05
SAMPLE_USERS = 6
# Chains run row by row here and in 512-row blocks in the program, so
# the BLAS sums differ in order; 1e-9 is far above that rounding and far
# below any score gap a real fault leaves.
CHAIN_TOL = 1e-9
# Metrics are sums of a few thousand terms taken in another order.
METRIC_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def digest_tree(root: str) -> dict:
    """Relative path -> sha256 of every file under root."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _same_outputs(ctx: dict) -> None:
    trees = ctx["round_files"]
    for i, tree in enumerate(trees[1:], start=2):
        diff = sorted(p for p in set(tree) | set(trees[0]) if tree.get(p) != trees[0].get(p))
        expect(not diff, f"output tree {i} differs from the first in {diff[:3]}")


def _same_figures(got, want, where: str) -> None:
    if isinstance(want, dict):
        expect(isinstance(got, dict) and set(got) == set(want),
               f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}")
        for key in want:
            _same_figures(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, int):
        expect(got == want, f"{where}: {got} != {want}")
    else:
        expect(close(got, want, METRIC_TOL), f"{where}: {got!r} != oracle {want!r}")


def _same_topk(items, scores, oracle_row, seen, where: str) -> None:
    """Rank by rank, the program's score equals the oracle's K-th best
    and the oracle scores the program's item the same; near-equal items
    may trade places, nothing else may differ."""
    want = oracle.topk_row(oracle_row, seen, K)
    expect(len(items) == K, f"{where}: {len(items)} items")
    for j, (item, score) in enumerate(zip(items, scores)):
        expect(close(score, oracle_row[want[j]], CHAIN_TOL),
               f"{where} rank {j + 1}: score {score!r}, oracle {oracle_row[want[j]]!r}")
        expect(close(score, oracle_row[item], CHAIN_TOL),
               f"{where} rank {j + 1}: item {item} scored {score!r}, oracle {oracle_row[item]!r}")


def _check_lists(lists: dict, train: list, where: str) -> None:
    expect(sorted(lists) == list(range(len(train))), f"{where}: users missing")
    for u, (items, scores) in lists.items():
        expect(len(items) == K and len(set(items)) == K, f"{where} user {u}: not {K} distinct items")
        expect(not set(items) & train[u], f"{where} user {u}: recommends a train item")
        expect(all(math.isfinite(s) for s in scores), f"{where} user {u}: non-finite score")
        expect(all(a >= b for a, b in zip(scores, scores[1:])),
               f"{where} user {u}: scores increase down the list")


class Data:
    """Split, groups, graph and checkpoints of one workspace, via the oracle."""

    def __init__(self, ws):
        split = oracle.read_manifest(ws.path("splits.json"))
        self.train = split["train"]
        self.test = split["debiased_test"]
        self.n_users, self.n_items = split["n_users"], split["n_items"]
        self.hot = oracle.hot_items(self.train, self.n_items, HOT_FRACTION)
        self.social = oracle.read_social(ws.social, self.n_users)
        self.seed = oracle.derive_seed(ws.seed, "inference")
        rng = np.random.default_rng([ws.seed, 7])
        self.sample = sorted(int(u) for u in rng.choice(self.n_users, SAMPLE_USERS, replace=False))
        self.item = oracle.read_checkpoint(ws.path("ckpt-cgd"))
        self.social_model = oracle.read_checkpoint(ws.path("ckpt-csd"))

    def chains(self, u: int, guidance: dict):
        return oracle.user_item_chains(u, self.item, self.social_model, self.social, self.train,
                                       self.n_items, self.hot, guidance, self.seed)

    def report(self, lists: dict) -> dict:
        return oracle.report(lists, self.test, self.train, self.hot, self.n_items)


def _dense(rows: list, users, width: int) -> np.ndarray:
    out = np.zeros((len(users), width))
    for j, u in enumerate(users):
        out[j, list(rows[u])] = 1.0
    return out


# ---------------------------------------------------------- lastfm_train


def check_train(ws, ctx) -> dict:
    from cgsorec.denoiser import init_params, predict_x0
    from cgsorec.trainer import load_checkpoint, save_checkpoint

    _same_outputs(ctx)
    split = oracle.read_manifest(ws.path("splits.json"))
    n_users, n_items = split["n_users"], split["n_items"]
    social = oracle.read_social(ws.social, n_users)
    rng = np.random.default_rng([ws.seed, 11])
    for kind, rows, width in (("cgd", split["train"], n_items), ("csd", social, n_users)):
        path = ws.path(f"ckpt-{kind}")
        model = oracle.read_checkpoint(path)
        expect(all(np.isfinite(a).all() for a in model.weights + model.biases),
               f"{kind}: non-finite weight")
        again = os.path.join(ws.root, f"reload-{kind}")
        ckpt = load_checkpoint(path)
        save_checkpoint(ckpt, again)
        for name in ("manifest.json", "params.bin"):
            with open(os.path.join(path, name), "rb") as a, open(os.path.join(again, name), "rb") as b:
                expect(a.read() == b.read(), f"{kind}: {name} changes on reload")
        users = rng.choice(n_users, 32, replace=False)
        t = rng.integers(1, model.T + 1, size=32)
        x0 = _dense(rows, users, width)
        x_t = np.array([oracle.corrupt(model, x, s, rng.standard_normal(width))
                        for x, s in zip(x0, t)])
        got = predict_x0(ckpt.params, x_t, t)
        want = np.vstack([oracle.forward(model, x, int(s)) for x, s in zip(x_t, t)])
        err = float(np.max(np.abs(got - want)))
        expect(err <= CHAIN_TOL * max(1.0, float(np.max(np.abs(want)))),
               f"{kind}: predict_x0 differs from the oracle forward by {err:.3g}")

    trained = oracle.read_checkpoint(ws.path("ckpt-cgd"))
    hidden = [w.shape[1] for w in trained.weights[:-1]]
    fresh = init_params((n_items, *hidden, n_items), trained.temb,
                        seed=oracle.derive_seed(ws.seed, "cgd-train"))
    fresh = oracle.Model(fresh.weights, fresh.biases, trained.temb, trained.beta)
    users = rng.choice(n_users, 128, replace=False)
    x0 = _dense(split["train"], users, n_items)
    t = rng.integers(1, trained.T + 1, size=len(users))
    eps = rng.standard_normal(x0.shape)
    loss_trained = oracle.weighted_loss(trained, x0, t, eps)
    loss_fresh = oracle.weighted_loss(fresh, x0, t, eps)
    expect(loss_trained < loss_fresh,
           f"trained CGD loss {loss_trained:.6g} not below the initial {loss_fresh:.6g}")

    try:
        valid = float(ws.valid_recall)
    except (TypeError, ValueError):
        valid = math.nan
    expect(0.0 < valid <= 1.0, f"valid_recall@10 {ws.valid_recall!r} outside (0, 1]")
    return {"valid_recall_at_10": valid, "loss_trained": loss_trained, "loss_fresh": loss_fresh}


# ---------------------------------------------------------- lastfm_infer


def check_infer(ws, ctx, guidance: dict) -> dict:
    _same_outputs(ctx)
    data = Data(ws)
    runs = {}
    unguided = {k: 0.0 for k in guidance}
    for name, g in (("unguided", unguided), ("guided", guidance)):
        lists = oracle.read_lists(ws.path(f"{name}.tsv"))
        _check_lists(lists, data.train, name)
        want = data.report({u: items for u, (items, _) in lists.items()})
        with open(ws.path(f"{name}.json"), encoding="utf-8") as fh:
            got = json.load(fh)
        for key in ("recall", "ndcg", "per_group", "freq_hist"):
            _same_figures(got[key], want[key], f"{name}.json {key}")
        for u in data.sample:
            a, b = data.chains(u, g)
            items, scores = lists[u]
            _same_topk(items, scores, oracle.blend(a, b, g["w_r"]), data.train[u],
                       f"{name} user {u}")
        runs[name] = want
    with open(ws.path("bias.json"), encoding="utf-8") as fh:
        bias = json.load(fh)
    for key in ("per_group", "freq_hist"):
        _same_figures(bias[key], runs["guided"][key], f"bias.json {key}")

    base, guided = runs["unguided"]["freq_hist"], runs["guided"]["freq_hist"]
    expect(guided["hot_mean_freq"] < base["hot_mean_freq"],
           f"guidance did not lower hot_mean_freq ({base['hot_mean_freq']} -> "
           f"{guided['hot_mean_freq']})")
    expect(guided["tail_mean_freq"] > base["tail_mean_freq"],
           f"guidance did not raise tail_mean_freq ({base['tail_mean_freq']} -> "
           f"{guided['tail_mean_freq']})")
    return _quality(runs["guided"])


def _quality(report: dict) -> dict:
    return {
        "recall_at_10": report["recall"]["10"],
        "ndcg_at_10": report["ndcg"]["10"],
        "tail_mean_freq": report["freq_hist"]["tail_mean_freq"],
        "hot_mean_freq": report["freq_hist"]["hot_mean_freq"],
    }


# ---------------------------------------------------------- lastfm_sweep


def check_sweep(ws, ctx, guidance: dict, grid) -> dict:
    _same_outputs(ctx)
    data = Data(ws)
    out_a, out_b = ctx["chains"]
    expect(out_b is not None, "sweep ran no second item chain")
    for u in data.sample:
        a, b = data.chains(u, dict(guidance, w_r=1.0))
        for label, got, want in (("A", out_a[u], a), ("B", out_b[u], b)):
            err = float(np.max(np.abs(got - want)))
            expect(err <= CHAIN_TOL * max(1.0, float(np.max(np.abs(want)))),
                   f"item chain {label} of user {u} differs from the oracle by {err:.3g}")

    sweep_dir = ws.path("sweep")
    summary = {}
    with open(os.path.join(sweep_dir, "summary.tsv"), encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split("\t")
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            summary[float(fields[0])] = dict(zip(header[1:], map(float, fields[1:])))
    expect(sorted(summary) == sorted(grid), f"summary.tsv covers {sorted(summary)}")

    chosen = None
    for w in grid:
        lists = oracle.topk_matrix(oracle.blend(out_a, out_b, w), data.train, K)
        want = data.report(dict(enumerate(lists)))
        with open(os.path.join(sweep_dir, f"report_guidance-w_r={w}.json"), encoding="utf-8") as fh:
            got = json.load(fh)
        for key in ("recall", "ndcg", "per_group", "freq_hist"):
            _same_figures(got[key], want[key], f"w_r={w} {key}")
        expect(got["recall"]["5"] <= got["recall"]["10"], f"w_r={w}: recall@5 > recall@10")
        expect(got["freq_hist"]["total_count"] == K * data.n_users,
               f"w_r={w}: histogram total {got['freq_hist']['total_count']}")
        row = summary[w]
        expect((row["recall@5"], row["recall@10"], row["ndcg@10"])
               == (got["recall"]["5"], got["recall"]["10"], got["ndcg"]["10"]),
               f"summary.tsv row {w} disagrees with its report")
        if w == guidance["w_r"]:
            chosen = want
    expect(chosen is not None, f"grid lacks the config's w_r={guidance['w_r']}")
    return _quality(chosen)
