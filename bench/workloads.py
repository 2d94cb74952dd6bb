"""The three workloads: their inputs, set-up, measured round and checks.

Every workload runs the program only through `cgsorec.cli.main`, called
in this process.  A run writes the `lastfm_like` stand-in dataset and a
config for its seed, sets up `SETUPS` times (the median is `setup_s`),
then repeats its measured round until `seconds` have passed; every
round does the same fixed work, so a change in the numbers can never
change how much work is done.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import time

import checks
from spans import RssSampler, Tracer, peak_rss_mb

import cgsorec.cli as cli
from cgsorec.synth import lastfm_like, write_dataset

N_USERS, N_ITEMS = 1853, 2698
SETUPS = 3
# The acceptance suite's lastfm shape.  patience exceeds the number of
# validations, so early stopping can never cut an epoch.
MODEL = {"T": 20, "beta_start": 1e-4, "beta_end": 0.02, "hidden_dims": [200],
         "time_embed_dim": 16, "learning_rate": 1e-3, "batch_size": 400}
TRAIN_EPOCHS = 12
SETUP_EPOCHS = 2
# The README's example guidance.
GUIDANCE = {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2}
UNGUIDED = [f"--set=guidance.{k}=0" for k in GUIDANCE]
SWEEP_GRID = [round(0.05 * i, 2) for i in range(14)]


class CommandFailed(RuntimeError):
    pass


def _model(epochs: int, valid_every: int) -> dict:
    return dict(MODEL, epochs=epochs, valid_every=valid_every, patience=epochs + 1)


class Workspace:
    """A run's directory: inputs, config, and the program's output dir."""

    def __init__(self, root: str, seed: int, workload):
        self.root = root
        self.seed = seed
        self.out = os.path.join(root, "run")
        os.makedirs(root, exist_ok=True)
        self.interactions = os.path.join(root, "r.tsv")
        self.social = os.path.join(root, "s.tsv")
        write_dataset(lastfm_like(seed=seed), self.interactions, self.social)
        self.config = os.path.join(root, "config.json")
        cfg = {
            "seed": seed,
            "output_dir": self.out,
            "dataset": {"interactions": self.interactions, "social": self.social,
                        "n_users": N_USERS, "n_items": N_ITEMS},
            "cgd": _model(workload.train_epochs, workload.valid_every),
            "csd": _model(workload.train_epochs, workload.valid_every),
            "guidance": GUIDANCE,
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        self.attempted = 0
        self.tracer = None
        self.valid_recall = None  # what `train --model cgd` printed last

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def cli(self, *argv) -> tuple[float, str]:
        """Run one command; returns (wall seconds, stdout)."""
        command = argv[0]
        argv = [command, self.config, *argv[1:]]
        buf = io.StringIO()
        self.attempted += 1
        sampler = RssSampler() if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), sampler:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if self.tracer:
            self.tracer.command_span(command, wall, sampler.peak_mb)
        if code != 0:
            raise CommandFailed(f"{' '.join(argv)} exited {code}")
        return wall, buf.getvalue()

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return value
    return None


# ------------------------------------------------------------ workloads
# Each workload: setup(ws) runs the set-up commands; measure(ws) runs one
# round and returns (rows of work, wall of the command(s) that do it);
# check(ws, ctx) verifies the outputs and returns the quality figures.


class LastfmTrain:
    """Gradient steps dominate; the chains run only as validation."""

    name = "lastfm_train"
    train_epochs, valid_every = TRAIN_EPOCHS, TRAIN_EPOCHS

    def setup(self, ws):
        ws.cli("prepare")

    def measure(self, ws):
        wall_c, out_c = ws.cli("train", "--model", "cgd")
        wall_s, _ = ws.cli("train", "--model", "csd")
        ws.valid_recall = _field(out_c, "valid_recall@10")
        # Both models step over every user row once per epoch.
        rows = 2 * self.train_epochs * N_USERS
        return rows, wall_c + wall_s

    def check(self, ws, ctx):
        return checks.check_train(ws, ctx)


class LastfmInfer:
    """The reverse chains dominate: unguided, then fully guided inference."""

    name = "lastfm_infer"
    train_epochs, valid_every = SETUP_EPOCHS, SETUP_EPOCHS + 1

    def setup(self, ws):
        ws.cli("prepare")
        ws.cli("train", "--model", "cgd")
        ws.cli("train", "--model", "csd")

    def measure(self, ws):
        ws.cli("infer", "--out", ws.path("unguided.tsv"), *UNGUIDED)
        ws.cli("eval", "--lists", ws.path("unguided.tsv"), "--out", ws.path("unguided.json"))
        wall, _ = ws.cli("infer", "--out", ws.path("guided.tsv"))
        ws.cli("eval", "--lists", ws.path("guided.tsv"), "--out", ws.path("guided.json"))
        ws.cli("bias-report", "--lists", ws.path("guided.tsv"), "--out", ws.path("bias.json"))
        return N_USERS, wall

    def check(self, ws, ctx):
        return checks.check_infer(ws, ctx, GUIDANCE)


class LastfmSweep(LastfmInfer):
    """One pair of chains, then ranking and evaluation per grid value."""

    name = "lastfm_sweep"

    def measure(self, ws):
        values = ",".join(str(v) for v in SWEEP_GRID)
        wall, _ = ws.cli("sweep", "--param", "guidance.w_r", "--values", values,
                         "--out-dir", ws.path("sweep"))
        return N_USERS * len(SWEEP_GRID), wall

    def check(self, ws, ctx):
        return checks.check_sweep(ws, ctx, GUIDANCE, SWEEP_GRID)


WORKLOADS = {w.name: w for w in (LastfmTrain(), LastfmInfer(), LastfmSweep())}


@contextlib.contextmanager
def _capture_chains(ctx: dict):
    """Keep the two item chains `sweep` blends, for the output checks.

    The previous round's pair is dropped before the next round starts,
    so holding it never raises the peak of a later round."""
    original = cli.joint_chains

    def keep(*args, **kwargs):
        ctx["chains"] = out = original(*args, **kwargs)
        return out

    cli.joint_chains = keep
    try:
        yield
    finally:
        cli.joint_chains = original


def run(workload, work_root: str, seed: int, seconds: float) -> dict:
    """Untraced run: SETUPS set-ups, then whole rounds for `seconds`."""
    ws = Workspace(work_root, seed, workload)
    setups = []
    for _ in range(SETUPS):
        ws.reset()
        start = time.perf_counter()
        workload.setup(ws)
        setups.append(time.perf_counter() - start)
    ctx: dict = {"round_files": []}
    walls, cpus, rates = [], [], []
    begin = time.perf_counter()
    with _capture_chains(ctx):
        while True:
            ctx.pop("chains", None)
            cpu0, start = _cpu_s(), time.perf_counter()
            rows, main_wall = workload.measure(ws)
            walls.append(time.perf_counter() - start)
            cpus.append(_cpu_s() - cpu0)
            rates.append(rows / main_wall)
            ctx["round_files"].append(checks.digest_tree(ws.out))
            if time.perf_counter() - begin >= seconds:
                break
    peak = peak_rss_mb()
    quality = workload.check(ws, ctx)
    return {
        "attempted": ws.attempted,
        "rounds": len(walls),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak, "MB"),
            "rows_per_s": (statistics.median(rates), "rows/s"),
        },
        "quality": quality,
    }


def run_traced(workload, work_root: str, seed: int) -> dict:
    """One traced set-up and round, then the same again untraced.

    The traced pass goes first, like the round of an untraced run, so
    per-command memory peaks are not raised by what an earlier pass left
    resident; the overhead figure therefore also holds whatever the
    second pass saves by running warm.  Both passes write into the same
    output path, since reports echo the config; the checks compare the
    two trees' file digests."""
    ws = Workspace(work_root, seed, workload)
    tracer = Tracer()
    ctx: dict = {"round_files": []}
    walls = []
    for traced in (True, False):
        ws.reset()
        ctx.pop("chains", None)
        ws.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            with _capture_chains(ctx):
                workload.setup(ws)
                start = time.perf_counter()
                workload.measure(ws)
                walls.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        ctx["round_files"].append(checks.digest_tree(ws.out))
    quality = workload.check(ws, ctx)
    metrics = tracer.metrics()
    metrics["process.tracing_overhead_s"] = (walls[0] - walls[1], "s")
    return {"attempted": ws.attempted, "rounds": 1, "metrics": metrics, "quality": quality}
