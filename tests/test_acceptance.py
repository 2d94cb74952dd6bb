"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Every test appends a "criterion N: PASS/FAIL" line to the terminal
summary (see conftest) before asserting, so a failing criterion still
reports what it measured.  The two trained workspaces (the small
planted-bias dataset and the larger one with LastFM-scale totals) are
module-scoped: they train once and every criterion that needs them
reuses the checkpoints.  Criterion 10 re-runs the scoring and report
writing of criteria 4-8 from those checkpoints and byte-compares the
report files.
"""

import itertools
import json
import statistics
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import rand_binary_csr, record_acceptance, untrained_checkpoint, whole_scores
from reference import blend, config_from_dict, input_buffer, ndcg_at_k, posterior_params
from cgsorec import pipeline
from cgsorec.corpus import InteractionMatrix, SocialMatrix, partition_items
from cgsorec.denoiser import init_params, loss_and_grad
from cgsorec.evaluation import evaluate_lists, recall_at_k, report_json, topk_lists
from cgsorec.guidance import (
    STAGE_ITEM,
    GuidanceConfig,
    joint_chains,
    unconditional_scores,
)
from cgsorec.schedule import make_schedule, q_sample
from cgsorec.synth import lastfm_like, planted, write_dataset

pytestmark = pytest.mark.acceptance

# Frozen experiment settings.  Training is deterministic given these, so
# every number the criteria check is reproducible from scratch.
PLANTED_MODEL = {
    "T": 20, "hidden_dims": [64], "time_embed_dim": 16,
    "learning_rate": 1e-3, "epochs": 80, "batch_size": 64,
    "patience": 10, "valid_every": 2,
}
LASTFM_CGD = {
    "T": 20, "hidden_dims": [200], "time_embed_dim": 16,
    "learning_rate": 1e-3, "epochs": 100, "batch_size": 400,
    "patience": 10, "valid_every": 5,
}
LASTFM_CSD = dict(LASTFM_CGD, epochs=150, patience=6)

# Guidance settings picked by a coarse calibration sweep on each dataset;
# the criteria below re-derive the large-dataset point from its own grid.
C7_GUIDANCE = dict(delta=1.0, eta=0.2, w_s=0.5, lam=2.0, gamma=0.5, w_r=0.2)
C8_SWEEP = dict(delta=1.0, eta=0.2, w_s=0.5, lam=1.0, gamma=0.5)


def finish(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    record_acceptance(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def acc_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _workspace(root, make, n_users, n_items, cgd, csd, seed):
    """Both models trained, in directory `root`, on make(seed=seed) under
    the root config seed `seed`."""
    write_dataset(make(seed=seed), root / "r.tsv", root / "s.tsv")
    cfg = config_from_dict({
        "seed": seed,
        "output_dir": str(root / "run"),
        "dataset": {
            "interactions": str(root / "r.tsv"),
            "social": str(root / "s.tsv"),
            "n_users": n_users,
            "n_items": n_items,
        },
        "cgd": dict(cgd),
        "csd": dict(csd),
    })
    R, S = pipeline.load_dataset(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    t0 = time.perf_counter()
    ck_item = pipeline.train_item_model(cfg, bundle)
    ck_soc = pipeline.train_social_model(cfg, S)
    return SimpleNamespace(
        cfg=cfg,
        R=R,
        S=S,
        bundle=bundle,
        hot=partition_items(bundle.train, cfg["eval.hot_fraction"]),
        seed=cfg.seed_for("inference"),
        ck_item=ck_item,
        ck_soc=ck_soc,
        train_secs=time.perf_counter() - t0,
    )


def planted_workspace(root, seed=0):
    """The workspace of criteria 7 and 8: `planted`, 200 users."""
    return _workspace(root, planted, 200, 300, PLANTED_MODEL, PLANTED_MODEL, seed)


def lastfm_workspace(root, seed=0):
    """The workspace of criteria 5 and 6: `lastfm_like`, 1853 users."""
    return _workspace(root, lastfm_like, 1853, 2698, LASTFM_CGD, LASTFM_CSD, seed)


@pytest.fixture(scope="module")
def planted_ws(tmp_path_factory):
    return planted_workspace(tmp_path_factory.mktemp("acc-planted"))


@pytest.fixture(scope="module")
def lastfm_ws(tmp_path_factory):
    return lastfm_workspace(tmp_path_factory.mktemp("acc-lastfm"))


@pytest.fixture(scope="module")
def joint_fixture():
    rng = np.random.default_rng(404)
    R = InteractionMatrix(rand_binary_csr(rng, 50, 64, 0.15))
    upper = sp.triu(rand_binary_csr(rng, 50, 50, 0.1), k=1)
    S = SocialMatrix(((upper + upper.T) > 0).astype(np.float64).tocsr())
    return SimpleNamespace(
        R=R,
        S=S,
        ck_item=untrained_checkpoint(64, T=5, hidden=(8,), seed=1),
        ck_soc=untrained_checkpoint(50, T=5, hidden=(8,), seed=2, tag="CSD"),
        hot=partition_items(R, 0.05),
    )


# --------------------------------------------------- report-file writers
# Each writer recomputes its criterion's scores from the fixed checkpoints
# and writes the report files; criterion 10 calls them a second time into
# a fresh directory and compares bytes.


def _write_c4(fx, out_dir):
    g = GuidanceConfig()
    scores = blend(*joint_chains(fx.ck_soc, fx.ck_item, fx.S, fx.R, fx.hot, g, seed=99), g.w_r)
    lists = topk_lists(scores, 10, mask=fx.R.matrix)
    pipeline.write_lists(lists, out_dir / "lists.tsv")
    return scores


def _c5_grid(ws):
    g = GuidanceConfig()
    base = blend(*joint_chains(None, ws.ck_item, None, ws.bundle.train, ws.hot, g, ws.seed), g.w_r)
    base_r10 = recall_at_k(
        topk_lists(base, 10, mask=ws.bundle.train), ws.bundle.debiased_test, 10
    )
    best = None
    for eta, w_s, lam, gamma in itertools.product(
        (0.2, 0.5), (0.2, 0.5), (1.0, 2.0), (0.2, 0.5)
    ):
        g = GuidanceConfig(delta=1.0, eta=eta, w_s=w_s, lam=lam, gamma=gamma, w_r=1.0)
        out_a, out_b = joint_chains(
            ws.ck_soc, ws.ck_item, ws.S, ws.bundle.train, ws.hot, g, ws.seed
        )
        for w_r in (0.0, 0.1, 0.3, 0.5):
            scores = out_a if w_r == 0.0 else (1.0 - w_r) * out_a + w_r * out_b
            r10 = recall_at_k(
                topk_lists(scores, 10, mask=ws.bundle.train),
                ws.bundle.debiased_test, 10,
            )
            if best is None or r10 > best.r10:
                best = SimpleNamespace(
                    r10=r10,
                    scores=scores,
                    params=dict(
                        delta=1.0, eta=eta, w_s=w_s, lam=lam, gamma=gamma, w_r=w_r
                    ),
                )
    return SimpleNamespace(base_scores=base, base_r10=base_r10, best=best)


def _write_c5(ws, out_dir):
    res = _c5_grid(ws)
    for name, scores, echo in (
        ("base_report.json", res.base_scores, {"guidance": "disabled"}),
        ("best_report.json", res.best.scores, res.best.params),
    ):
        report = evaluate_lists(
            topk_lists(scores, 10, mask=ws.bundle.train),
            ws.bundle.debiased_test, ws.bundle.train, ws.hot, ks=[5, 10],
        )
        (out_dir / name).write_text(report_json(dict(report, config=echo)), encoding="utf-8")
    return res


def _c7_lists(ws):
    """(file name, top-10 lists, config echo) of criterion 7's unguided
    and guided runs."""
    g = GuidanceConfig()
    base = blend(*joint_chains(None, ws.ck_item, None, ws.bundle.train, ws.hot, g, ws.seed), g.w_r)
    yield "base_report.json", topk_lists(base, 10, mask=ws.bundle.train), {"conditions": "disabled"}
    g = GuidanceConfig(**C7_GUIDANCE)
    cond = blend(
        *joint_chains(ws.ck_soc, ws.ck_item, ws.S, ws.bundle.train, ws.hot, g, ws.seed), g.w_r
    )
    yield "guided_report.json", topk_lists(cond, 10, mask=ws.bundle.train), dict(C7_GUIDANCE)


def _write_c7(ws, out_dir):
    reports = {}
    for name, lists, echo in _c7_lists(ws):
        report = evaluate_lists(lists, ws.bundle.test, ws.bundle.train, ws.hot, ks=[5, 10])
        (out_dir / name).write_text(report_json(dict(report, config=echo)), encoding="utf-8")
        reports[name] = report
    return reports


def _c8_lists(ws):
    """(w_r, top-10 lists) at each w_r of criterion 8's grid, 0 to 0.9."""
    g = GuidanceConfig(w_r=1.0, **C8_SWEEP)
    out_a, out_b = joint_chains(
        ws.ck_soc, ws.ck_item, ws.S, ws.bundle.train, ws.hot, g, ws.seed
    )
    for w_r in np.round(np.arange(0.0, 1.0, 0.1), 1):
        scores = out_a if w_r == 0.0 else (1.0 - w_r) * out_a + w_r * out_b
        yield float(w_r), topk_lists(scores, 10, mask=ws.bundle.train)


def _write_c8(ws, out_dir):
    curve = [(w_r, ndcg_at_k(lists, ws.bundle.test, 10)) for w_r, lists in _c8_lists(ws)]
    with open(out_dir / "sweep.tsv", "w", encoding="utf-8") as fh:
        fh.write("w_r\tndcg@10\n")
        for w_r, v in curve:
            fh.write(f"{w_r}\t{v!r}\n")
    return curve


def _ensure(acc_root, name, writer):
    d = acc_root / name
    if not d.exists():
        d.mkdir()
        writer(d)
    return d


# ---------------------------------------------------------------- criteria


def test_criterion_1_posterior_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(2, 40))
        sched = make_schedule(
            T, float(rng.uniform(1e-5, 5e-3)), float(rng.uniform(0.01, 0.2))
        )
        t = int(rng.integers(2, T + 1))
        x_t = float(rng.uniform(0.5, 2.0))
        x0 = float(rng.uniform(0.5, 2.0))
        mean, var = posterior_params(np.array([x_t]), np.array([x0]), t, sched)
        # Independent 1-D Bayes rule: prior x_{t-1} ~ N(sqrt(abar_{t-1}) x0,
        # 1 - abar_{t-1}), likelihood x_t | x_{t-1} ~ N(sqrt(a_t) x_{t-1},
        # 1 - a_t); combine precisions.
        a_t = float(sched.alpha[t - 1])
        ab_prev = float(sched.alpha_bar[t - 2])
        prior_mean = np.sqrt(ab_prev) * x0
        prior_var = 1.0 - ab_prev
        post_var = 1.0 / (1.0 / prior_var + a_t / (1.0 - a_t))
        post_mean = post_var * (
            prior_mean / prior_var + np.sqrt(a_t) * x_t / (1.0 - a_t)
        )
        worst = max(
            worst,
            abs(mean[0] - post_mean) / abs(post_mean),
            abs(var - post_var) / post_var,
        )

    # Forward-corruption moments: 10k draws at one (x0, t).
    sched = make_schedule(10, 1e-4, 0.05)
    n, t, val = 10_000, 6, 0.8
    eps = rng.standard_normal((n, 1))
    x_t = q_sample(np.full((n, 1), val), np.full(n, t), eps, sched)
    ab = float(sched.alpha_bar[t - 1])
    se = np.sqrt(1.0 - ab) / np.sqrt(n)
    mean_off = abs(float(x_t.mean()) - np.sqrt(ab) * val) / se
    var_off = abs(float(x_t.var()) / (1.0 - ab) - 1.0)
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-10 and mean_off < 4.0 and var_off < 0.05 and elapsed < 10.0
    finish(1, ok, (
        f"1000 Bayes-rule tuples, worst rel err {worst:.2e} (need <1e-10); "
        f"corruption mean off {mean_off:.2f} SE (need <4), "
        f"variance off {var_off:.2%} (need <5%); {elapsed:.1f}s of 10"
    ))


def test_criterion_2_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    sched = make_schedule(5, 1e-4, 0.02)
    params = init_params((6, 4, 6), 4, seed=7, model_tag="CGD")
    x0 = (rng.random((3, 6)) < 0.5).astype(np.float64)
    t = rng.integers(1, 6, size=3)
    eps = rng.standard_normal((3, 6))
    _, grads = loss_and_grad(params, x0, t, input_buffer(params, eps), sched)

    h = 1e-5
    worst = 0.0
    n_coords = 0
    for tensors, gtensors in (
        (params.weights, grads.weights),
        (params.biases, grads.biases),
    ):
        for W, G in zip(tensors, gtensors):
            it = np.nditer(W, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = W[idx]
                W[idx] = orig + h
                lp, _ = loss_and_grad(params, x0, t, input_buffer(params, eps), sched)
                W[idx] = orig - h
                lm, _ = loss_and_grad(params, x0, t, input_buffer(params, eps), sched)
                W[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                rel = abs(G[idx] - fd) / max(abs(G[idx]), abs(fd), 1e-8)
                worst = max(worst, rel)
                n_coords += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    finish(2, ok, (
        f"all {n_coords} gradient coordinates vs central differences, "
        f"worst rel err {worst:.2e} (need <1e-4); {elapsed:.1f}s of 5"
    ))


def _brute_topk(scores_row, masked, K):
    order = sorted(
        (i for i in range(len(scores_row)) if i not in masked),
        key=lambda i: (-scores_row[i], i),
    )
    return order[:K]


def _brute_recall(tops, test_sets):
    hits = 0
    relevant = 0
    for top, t_set in zip(tops, test_sets):
        if not t_set:
            continue
        hits += sum(1 for i in top if i in t_set)
        relevant += len(t_set)
    return hits / relevant


def _brute_ndcg(tops, test_sets):
    values = []
    for top, t_set in zip(tops, test_sets):
        if not t_set:
            continue
        ranks = [r + 1 for r, i in enumerate(top) if i in t_set]
        dcg = float(np.sum(1.0 / np.log2(np.asarray(ranks, dtype=np.int64) + 1)))
        ideal = min(len(t_set), len(top))
        idcg = float(np.sum(1.0 / np.log2(np.arange(1, ideal + 1) + 1)))
        values.append(dcg / idcg)
    return float(np.mean(values))


def test_criterion_3_metric_oracles():
    mismatches = 0
    for f in range(100):
        rng = np.random.default_rng(3000 + f)
        scores = rng.standard_normal((10, 20))
        mask = rand_binary_csr(rng, 10, 20, 0.25)
        mask_sets = [set(mask[u].indices.tolist()) for u in range(10)]
        test_sets = []
        rows, cols = [], []
        for u in range(10):
            free = [i for i in range(20) if i not in mask_sets[u]]
            size = int(rng.integers(1, 4)) if u == 0 else int(rng.integers(0, 4))
            chosen = set(
                int(i) for i in rng.choice(free, size=min(size, len(free)), replace=False)
            )
            test_sets.append(chosen)
            rows.extend([u] * len(chosen))
            cols.extend(sorted(chosen))
        test = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(10, 20)
        ).tocsr()
        for K in (1, 3, 5):
            lists = topk_lists(scores, K, mask=mask)
            tops = [_brute_topk(scores[u], mask_sets[u], K) for u in range(10)]
            same_lists = np.array_equal(
                lists.items, np.asarray(tops, dtype=lists.items.dtype)
            )
            same_recall = recall_at_k(lists, test) == _brute_recall(tops, test_sets)
            same_ndcg = ndcg_at_k(lists, test) == _brute_ndcg(tops, test_sets)
            if not (same_lists and same_recall and same_ndcg):
                mismatches += 1
    finish(3, mismatches == 0, (
        f"recall/ndcg exactly equal brute-force references on 100 random "
        f"10x20 fixtures for K in {{1,3,5}} ({mismatches} mismatches)"
    ))


def test_criterion_4_zero_guidance_reduction(acc_root, joint_fixture):
    fx = joint_fixture
    d = acc_root / "c4"
    d.mkdir()
    out = _write_c4(fx, d)
    ref = whole_scores(fx.ck_item.params, fx.ck_item.sched, fx.R.matrix, seed=99, stage=STAGE_ITEM)
    ok = np.array_equal(out, ref)
    finish(4, ok, (
        "joint inference with every coefficient zero (social checkpoint and "
        f"graph supplied) is bitwise identical to plain denoising on a "
        f"{out.shape[0]}-user fixture"
    ))


def test_criterion_5_recall_uplift_on_debiased_split(acc_root, lastfm_ws):
    ws = lastfm_ws
    t0 = time.perf_counter()
    d = acc_root / "c5"
    d.mkdir()
    res = _write_c5(ws, d)
    ratio = res.best.r10 / res.base_r10
    elapsed = ws.train_secs + (time.perf_counter() - t0)
    ok = ratio >= 1.05 and elapsed < 45 * 60
    p = res.best.params
    finish(5, ok, (
        f"debiased Recall@10 {res.base_r10:.4f} -> {res.best.r10:.4f} "
        f"({ratio:.3f}x, need >=1.05x) at eta={p['eta']} w_s={p['w_s']} "
        f"lam={p['lam']} gamma={p['gamma']} w_r={p['w_r']}; "
        f"{elapsed/60:.1f} min of 45 including training"
    ))


def test_criterion_6_recommendation_frequency_shift(acc_root, lastfm_ws):
    d = _ensure(acc_root, "c5", lambda out: _write_c5(lastfm_ws, out))
    base = json.loads((d / "base_report.json").read_text(encoding="utf-8"))
    best = json.loads((d / "best_report.json").read_text(encoding="utf-8"))
    b_hot = base["freq_hist"]["hot_mean_freq"]
    b_tail = base["freq_hist"]["tail_mean_freq"]
    g_hot = best["freq_hist"]["hot_mean_freq"]
    g_tail = best["freq_hist"]["tail_mean_freq"]
    ok = g_hot < b_hot and g_tail > b_tail
    finish(6, ok, (
        f"same run as criterion 5: hot-item mean recommendation frequency "
        f"{b_hot:.2f} -> {g_hot:.2f} (must drop), tail {b_tail:.3f} -> "
        f"{g_tail:.3f} (must rise)"
    ))


def test_criterion_7_hot_tail_tradeoff(acc_root, planted_ws):
    ws = planted_ws
    t0 = time.perf_counter()
    d = acc_root / "c7"
    d.mkdir()
    reports = _write_c7(ws, d)
    off = reports["base_report.json"]["per_group"]
    on = reports["guided_report.json"]["per_group"]
    hot_off, hot_on = off["hot"]["recall"][10], on["hot"]["recall"][10]
    tail_off, tail_on = off["tail"]["recall"][10], on["tail"]["recall"][10]
    elapsed = ws.train_secs + (time.perf_counter() - t0)
    ok = hot_on < hot_off and tail_on >= 1.10 * tail_off and elapsed < 600
    finish(7, ok, (
        f"conditions on vs off: tail Recall@10 {tail_off:.4f} -> {tail_on:.4f} "
        f"({tail_on/tail_off - 1.0:+.1%}, need >=+10%), hot {hot_off:.4f} -> "
        f"{hot_on:.4f} (must drop); {elapsed:.0f}s of 600 including training"
    ))


def test_criterion_8_blend_weight_sweep_interior_max(acc_root, planted_ws):
    d = acc_root / "c8"
    d.mkdir()
    curve = _write_c8(planted_ws, d)
    best_wr, best_n10 = max(curve, key=lambda p: p[1])
    ok = 0.0 < best_wr < 0.9
    finish(8, ok, (
        f"NDCG@10 over w_r 0..0.9 peaks at w_r={best_wr:.1f} "
        f"({best_n10:.4f}; endpoints {curve[0][1]:.4f} / {curve[-1][1]:.4f}) "
        f"— interior maximum required"
    ))


def test_criterion_9_inference_scaling():
    rng = np.random.default_rng(909)
    med = {}
    for n_items in (256, 512):
        ck = untrained_checkpoint(n_items, T=5, hidden=(64,), seed=3)
        rows = rand_binary_csr(rng, 1000, n_items, 0.05)
        # the streamed denoise of every row, each block dropped once made
        denoise = partial(unconditional_scores, ck.params, ck.sched, rows, 5, 0, STAGE_ITEM)
        denoise(lambda span, a, b: None)  # warm
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            denoise(lambda span, a, b: None)
            samples.append(time.perf_counter() - t0)
        med[n_items] = statistics.median(samples)
    ratio = med[512] / med[256]
    ok = ratio <= 2.5
    finish(9, ok, (
        f"1000-user denoise, median of 5: {med[256]*1e3:.0f} ms at 256 items "
        f"-> {med[512]*1e3:.0f} ms at 512 ({ratio:.2f}x, need <=2.5x)"
    ))


def test_criterion_10_reproducible_reports(
    acc_root, joint_fixture, lastfm_ws, planted_ws
):
    runs = [
        ("c4", lambda d: _write_c4(joint_fixture, d)),
        ("c5", lambda d: _write_c5(lastfm_ws, d)),
        ("c7", lambda d: _write_c7(planted_ws, d)),
        ("c8", lambda d: _write_c8(planted_ws, d)),
    ]
    n_files = 0
    diffs = []
    for name, writer in runs:
        first = _ensure(acc_root, name, writer)
        second = acc_root / f"{name}-rerun"
        second.mkdir()
        writer(second)
        names_a = sorted(p.name for p in first.iterdir())
        names_b = sorted(p.name for p in second.iterdir())
        if names_a != names_b:
            diffs.append(f"{name}: file sets differ")
            continue
        for fn in names_a:
            n_files += 1
            if (first / fn).read_bytes() != (second / fn).read_bytes():
                diffs.append(f"{name}/{fn}")
    ok = not diffs
    finish(10, ok, (
        f"criteria 4/5/7/8 re-run from the same seed: {n_files} report files "
        f"byte-identical" if ok else "byte mismatch in: " + ", ".join(diffs)
    ))
