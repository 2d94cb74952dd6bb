"""The benchmark's tracer (bench/spans.py) wraps program functions by
module and name; a rename in the program must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

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
