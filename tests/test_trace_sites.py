"""The benchmark's tracer (bench/spans.py) wraps program functions by
module and name; a rename in the program must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from cgsorec import pipeline
from cgsorec.cli import main
from cgsorec.synth import planted, write_dataset

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
