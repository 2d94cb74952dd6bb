"""The benchmark's tracer (bench/spans.py) wraps program functions by
module and name; a rename in the program must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from cgsorec import guidance, pipeline
from cgsorec.cli import main
from cgsorec.synth import planted, write_dataset
from cgsorec.trainer import save_checkpoint

from conftest import untrained_checkpoint

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """bench/<name>.py as a module, with bench/ on sys.path for its imports."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def load_spans():
    return load_bench("spans")


def test_every_traced_site_resolves():
    spans = load_spans()
    missing = [
        f"cgsorec.{mod}.{attr}"
        for sites in spans.SITES.values()
        for mod, attr in sites
        if not callable(getattr(importlib.import_module(f"cgsorec.{mod}"), attr, None))
    ]
    assert not missing, f"traced functions not found: {missing}"


def test_fused_topk_lists_counts_the_score_rows():
    # infer ranks the chain pair as topk_lists(a, K, mask, other=b, w=w_r),
    # and a w_r sweep its whole grid as one call with a list for w; the
    # tracer counts len(a) users per call, whatever w is
    spans = load_spans()
    rng = np.random.default_rng(0)
    a, b = rng.random((7, 12)), rng.random((7, 12))
    mask = sp.identity(12, format="csr")[:7]
    for w in (0.35, [0.0, 0.35, 1.0]):
        args, kwargs = (a, 3), {"mask": mask, "other": b, "w": w}
        result = pipeline.topk_lists(*args, **kwargs)
        assert spans.COUNTS["evaluation.topk_lists"](args, kwargs, result) == {"users": len(a)}


def test_load_path_sites_record_calls(tmp_path):
    # prepare and eval must reach the loaders through the bindings the
    # tracer wraps, or their per-layer figures read zero
    write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")},
    }))
    lists = tmp_path / "lists.tsv"
    lists.write_text("".join(f"{u}\t{i}\t0.5\n" for u in range(2) for i in range(10)))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main(["prepare", str(cfg)]) == 0
        assert main(["eval", str(cfg), "--lists", str(lists)]) == 0
    finally:
        tracer.restore()
    for label in ("corpus.load_interactions", "corpus.split", "pipeline.load_manifest",
                  "pipeline.read_lists"):
        assert tracer.stats[label]["calls"] >= 1, label


def test_training_sites_record_calls(tmp_path):
    # train and --resume must reach the trainer, its step, its per-epoch
    # validation chain and ranking, and checkpoint I/O through the
    # bindings the tracer wraps, or lastfm_train's per-layer figures read zero
    write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")},
        "cgd": {"T": 3, "hidden_dims": [8], "time_embed_dim": 4, "epochs": 1,
                "batch_size": 64, "valid_every": 1},
    }))
    assert main(["prepare", str(cfg)]) == 0
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main(["train", str(cfg), "--model", "cgd"]) == 0
        assert main(["train", str(cfg), "--model", "cgd", "--resume", "--set", "cgd.epochs=2"]) == 0
    finally:
        tracer.restore()
    for label in ("trainer.train_model", "guidance.unconditional_scores",
                  "evaluation.topk_lists", "denoiser.loss_and_grad",
                  "trainer.optimizer_step", "trainer.save_checkpoint",
                  "trainer.load_checkpoint"):
        assert tracer.stats[label]["calls"] >= 1, label


def test_validation_runs_its_chains_inside_unconditional_scores(tmp_path, monkeypatch):
    # each validation chain step, on whichever thread it runs, happens
    # while guidance.unconditional_scores is open, so the span the tracer
    # puts there still measures lastfm_train's validation chains
    ds = planted(seed=0)
    write_dataset(ds, tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv")},
        "cgd": {"T": 3, "hidden_dims": [8], "time_embed_dim": 4, "epochs": 1,
                "batch_size": 64, "valid_every": 1},
    }))
    assert main(["prepare", str(cfg)]) == 0
    traced, model_mean = guidance.unconditional_scores, guidance.model_mean
    open_calls, steps = [], []

    def unconditional_scores(*args, **kwargs):
        open_calls.append("unconditional_scores")
        try:
            return traced(*args, **kwargs)
        finally:
            open_calls.remove("unconditional_scores")

    def mean(*args):
        steps.append(tuple(open_calls))  # list.append is atomic across threads
        return model_mean(*args)

    monkeypatch.setattr(guidance, "unconditional_scores", unconditional_scores)
    monkeypatch.setattr(guidance, "model_mean", mean)
    assert main(["train", str(cfg), "--model", "cgd"]) == 0
    # one validation over every user's chunks, T - 1 = 2 mean steps each
    chunks = -(-ds.n_users // guidance.CHUNK)
    assert Counter(steps) == {("unconditional_scores",): 2 * chunks}


def test_guided_infer_records_the_chain_work(tmp_path, monkeypatch):
    # the phases run their chains inside their own spans, one block at a
    # time, so their row counts and self time still measure the chains;
    # each block's condition rows are built, the social blocks
    # re-binarized and the item blocks ranked as they are made.  The
    # chain steps may run on worker threads, so a step is attributed to
    # the phase whose call is open, on whichever thread, while it runs
    monkeypatch.setattr(guidance, "CHUNK", 64)
    ds = planted(seed=0)
    assert -(-ds.n_users // 64) == 4  # the last block partial
    write_dataset(ds, tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")},
        "guidance": {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2},
    }))
    save_checkpoint(untrained_checkpoint(ds.n_items, T=3, seed=21), tmp_path / "ck-item")
    save_checkpoint(untrained_checkpoint(ds.n_users, T=3, seed=22, tag="CSD"), tmp_path / "ck-social")
    assert main(["prepare", str(cfg)]) == 0
    tracer = load_spans().Tracer()
    tracer.install()
    names = ("social_phase", "item_phase", "model_mean")
    traced = {name: getattr(guidance, name) for name in names}
    open_phases, steps = [], []

    def phase(name):
        def run(*args, **kwargs):
            open_phases.append(name)
            try:
                return traced[name](*args, **kwargs)
            finally:
                open_phases.remove(name)
        return run

    def model_mean(*args):
        steps.append(tuple(open_phases))  # list.append is atomic across threads
        return traced["model_mean"](*args)

    guidance.social_phase, guidance.item_phase = phase("social_phase"), phase("item_phase")
    guidance.model_mean = model_mean
    try:
        assert main([
            "infer", str(cfg), "--ckpt-cgd", str(tmp_path / "ck-item"),
            "--ckpt-csd", str(tmp_path / "ck-social"), "--out", str(tmp_path / "lists.tsv"),
        ]) == 0
    finally:
        for name, fn in traced.items():
            setattr(guidance, name, fn)
        tracer.restore()
    stats = tracer.stats
    assert stats["guidance.social_phase"]["rows"] == 2 * ds.n_users
    assert stats["guidance.item_phase"]["rows"] == 2 * ds.n_users
    assert stats["guidance.binarize_social"]["calls"] == 4
    for label in ("guidance.build_social_condition", "guidance.build_item_condition",
                  "corpus.copurchase", "corpus.social_preference"):
        assert stats[label]["calls"] == 4, label
    assert stats["evaluation.topk_lists"]["users"] == ds.n_users
    # both chains of each phase, over 4 blocks, take T - 1 = 2 mean steps
    per_phase = 2 * 4 * 2
    assert stats["schedule.model_mean"]["calls"] == 2 * per_phase
    assert Counter(steps) == {("social_phase",): per_phase, ("item_phase",): per_phase}


def test_sweep_capture_keeps_the_whole_pair(tmp_path):
    # lastfm_sweep checks its lists against the pair it captures at
    # cli.joint_chains; a sweep that stops calling it there, or calls it
    # per block, leaves that check nothing whole to compare
    ds = planted(seed=0)
    write_dataset(ds, tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")},
        "guidance": {"gamma": 0.5},
    }))
    save_checkpoint(untrained_checkpoint(ds.n_items, T=3, seed=21), tmp_path / "ck-item")
    assert main(["prepare", str(cfg)]) == 0
    ctx = {}
    with load_bench("workloads")._capture_chains(ctx):
        assert main([
            "sweep", str(cfg), "--param", "guidance.w_r", "--values", "0,0.2,1",
            "--ckpt-cgd", str(tmp_path / "ck-item"), "--out-dir", str(tmp_path / "sweep"),
        ]) == 0
    a, b = ctx["chains"]
    assert a.shape == (ds.n_users, ds.n_items)
    assert b is not None and b.shape == a.shape
