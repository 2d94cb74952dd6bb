"""Spans around the program's public functions, installed from outside.

`Tracer.install()` replaces each function named in `SITES` with a
wrapper in every module namespace its callers look it up in, and
`restore()` puts the originals back.  A wrapper records one span per
call: its self time (its duration minus the time its child spans cover
on the same thread) and the counts that `COUNTS` derives from the
call's arguments.  `RssSampler` reads the process's resident set from
/proc/self/statm while a command runs, so each command gets its own
peak even though the process peak only ever grows.
"""

from __future__ import annotations

import importlib
import os
import resource
import threading
import time
from collections import defaultdict


def _layer_flops(params) -> float:
    """2 * sum(fan_in * fan_out) over the denoiser's layers: flops per row."""
    return 2.0 * sum(w.shape[0] * w.shape[1] for w in params.weights)


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else int(x.shape[0])


def _file_bytes(path) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path)


def _chain_rows(matrix, blend: float) -> int:
    """Rows entering a phase's chains: the second chain runs when blended."""
    return matrix.n_users * (2 if blend > 0 else 1)


# Counts per call, from (args, kwargs, result).
COUNTS = {
    "denoiser.loss_and_grad": lambda a, k, r: {
        "rows": _rows(a[1]),
        "gflop": 3 * _rows(a[1]) * _layer_flops(a[0]) / 1e9,
    },
    "denoiser.predict_x0": lambda a, k, r: {
        "rows": _rows(a[1]),
        "gflop": _rows(a[1]) * _layer_flops(a[0]) / 1e9,
    },
    "trainer.save_checkpoint": lambda a, k, r: {"bytes": _file_bytes(a[1])},
    "pipeline.write_manifest": lambda a, k, r: {"bytes": _file_bytes(r)},
    "pipeline.write_lists": lambda a, k, r: {"bytes": _file_bytes(a[1])},
    "guidance.social_phase": lambda a, k, r: {"rows": _chain_rows(a[1], a[3].w_s)},
    "guidance.item_phase": lambda a, k, r: {"rows": _chain_rows(a[1], a[3].w_r)},
    "evaluation.topk_lists": lambda a, k, r: {"users": int(a[0].shape[0])},
}

# label -> the (module, attribute) pairs its callers resolve it through.
SITES = {
    "denoiser.loss_and_grad": [("trainer", "loss_and_grad")],
    "denoiser.predict_x0": [("guidance", "predict_x0")],
    "schedule.model_mean": [("guidance", "model_mean")],
    "schedule.q_sample": [("guidance", "q_sample"), ("denoiser", "q_sample")],
    "trainer.optimizer_step": [("trainer", "optimizer_step")],
    "trainer.train_model": [("pipeline", "train_model")],
    "trainer.save_checkpoint": [("cli", "save_checkpoint")],
    "trainer.load_checkpoint": [("cli", "load_checkpoint")],
    "guidance.social_phase": [("guidance", "social_phase")],
    "guidance.item_phase": [("guidance", "item_phase")],
    "guidance.binarize_social": [("guidance", "binarize_social")],
    "guidance.build_social_condition": [("guidance", "build_social_condition")],
    "guidance.build_item_condition": [("guidance", "build_item_condition")],
    "guidance.unconditional_scores": [("guidance", "unconditional_scores")],
    "evaluation.topk_lists": [("pipeline", "topk_lists"), ("evaluation", "topk_lists")],
    "evaluation.evaluate_lists": [("pipeline", "evaluate_lists")],
    "evaluation.group_metrics": [("evaluation", "group_metrics"), ("cli", "group_metrics")],
    "evaluation.frequency_histogram": [
        ("evaluation", "frequency_histogram"),
        ("cli", "frequency_histogram"),
    ],
    "corpus.load_interactions": [("pipeline", "load_interactions")],
    "corpus.load_social": [("pipeline", "load_social")],
    "corpus.split": [("pipeline", "split")],
    "corpus.build_debiased_test": [("pipeline", "build_debiased_test")],
    "corpus.copurchase": [("guidance", "copurchase")],
    "corpus.social_preference": [("guidance", "social_preference")],
    "pipeline.write_manifest": [("pipeline", "write_manifest")],
    "pipeline.load_manifest": [("pipeline", "load_manifest")],
    "pipeline.social_holdout": [("pipeline", "social_holdout")],
    "pipeline.write_lists": [("pipeline", "write_lists")],
    "pipeline.read_lists": [("pipeline", "read_lists")],
}

# The per-layer figures the benchmark reports: label -> quantities.
REPORTED = {
    "denoiser.loss_and_grad": ("self_s", "calls", "rows", "gflop"),
    "trainer.optimizer_step": ("self_s", "calls"),
    "trainer.train_model": ("self_s",),
    "trainer.save_checkpoint": ("self_s", "bytes"),
    "trainer.load_checkpoint": ("self_s", "calls"),
    "denoiser.predict_x0": ("self_s", "calls", "rows", "gflop"),
    "schedule.model_mean": ("self_s", "calls"),
    "schedule.q_sample": ("self_s", "calls"),
    "guidance.social_phase": ("self_s", "rows"),
    "guidance.item_phase": ("self_s", "rows"),
    "guidance.binarize_social": ("self_s", "calls"),
    "guidance.build_social_condition": ("self_s",),
    "guidance.build_item_condition": ("self_s",),
    "guidance.unconditional_scores": ("self_s", "calls"),
    "evaluation.topk_lists": ("self_s", "users"),
    "evaluation.evaluate_lists": ("self_s", "calls"),
    "evaluation.group_metrics": ("self_s",),
    "evaluation.frequency_histogram": ("self_s",),
    "corpus.load_interactions": ("self_s",),
    "corpus.load_social": ("self_s",),
    "corpus.split": ("self_s",),
    "corpus.build_debiased_test": ("self_s",),
    "corpus.copurchase": ("self_s",),
    "corpus.social_preference": ("self_s",),
    "pipeline.write_manifest": ("self_s", "bytes"),
    "pipeline.load_manifest": ("self_s", "calls"),
    "pipeline.social_holdout": ("self_s",),
    "pipeline.write_lists": ("self_s", "bytes"),
    "pipeline.read_lists": ("self_s",),
}
COMMANDS = ("prepare", "train", "infer", "eval", "bias-report", "sweep")
UNITS = {"self_s": "s", "wall_s": "s", "calls": "count", "rows": "count",
         "users": "count", "gflop": "GFLOP", "bytes": "bytes", "peak_rss_mb": "MB"}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, label, fn):
        count = COUNTS.get(label)

        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
            extra = count(args, kwargs, result) if count else {}
            with self._lock:
                st = self.stats[label]
                st["calls"] += 1
                st["self_s"] += dur - child
                for key, value in extra.items():
                    st[key] += value
            return result

        return traced

    def install(self) -> None:
        for label, sites in SITES.items():
            for mod_name, attr in sites:
                module = importlib.import_module(f"cgsorec.{mod_name}")
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(label, original))
                self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def command_span(self, command: str, wall_s: float, peak_mb: float) -> None:
        st = self.stats[f"cli.{command}"]
        st["wall_s"] += wall_s
        st["peak_rss_mb"] = max(st["peak_rss_mb"], peak_mb)

    def metrics(self) -> dict:
        """name -> (value, unit); a function that never ran reports zeros."""
        out = {}
        for label, quantities in REPORTED.items():
            for q in quantities:
                out[f"{label}.{q}"] = (self.stats[label][q], UNITS[q])
        for command in COMMANDS:
            for q in ("wall_s", "peak_rss_mb"):
                out[f"cli.{command}.{q}"] = (self.stats[f"cli.{command}"][q], UNITS[q])
        return out


def peak_rss_mb() -> float:
    """Process high-water mark of the resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssSampler:
    """Largest resident set seen while the `with` block runs.

    Polls /proc/self/statm every INTERVAL seconds from a thread; when the
    block raises the process high-water mark, that exact figure wins.
    """

    INTERVAL = 0.002

    def __init__(self):
        self.peak_mb = 0.0
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._stop = threading.Event()

    def _read(self) -> float:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * self._page_mb

    def _poll(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.peak_mb = max(self.peak_mb, self._read())

    def __enter__(self):
        self._hwm_before = peak_rss_mb()
        self.peak_mb = self._read()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        hwm = peak_rss_mb()
        if hwm > self._hwm_before:
            self.peak_mb = max(self.peak_mb, hwm)
        return False
