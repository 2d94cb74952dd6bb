"""Shared fixtures and the acceptance-line reporter.

Acceptance tests append one "criterion N: PASS/FAIL ..." line each to
ACCEPTANCE_LINES; the terminal-summary hook prints them after the run so
they survive pytest's output capture.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.denoiser import init_params
from cgsorec.errors import DataError
from cgsorec.guidance import STAGE_ITEM, unconditional_scores
from cgsorec.schedule import make_schedule
from cgsorec.store import Checkpoint, TrainConfig

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def rand_binary_csr(rng: np.random.Generator, m: int, n: int, density: float) -> sp.csr_matrix:
    """Random 0/1 csr matrix with at least one nonzero per row."""
    dense = (rng.random((m, n)) < density).astype(np.float64)
    for i in range(m):
        if not dense[i].any():
            dense[i, rng.integers(0, n)] = 1.0
    return sp.csr_matrix(dense)


def digits(most: int, signed: bool = False):
    """A field parser for an id of 1 to `most` ASCII digits, after a minus
    sign when `signed`; it raises ValueError on any other field."""
    def parse(field: bytes) -> int:
        body = field[1:] if signed and field[:1] == b"-" else field
        if not (body.isdigit() and len(body) <= most):
            raise ValueError(field)
        return int(field)
    return parse


def decimal(field: bytes) -> float:
    """A field parser for `-?digits[.digits]`."""
    whole, dot, fraction = (field[1:] if field[:1] == b"-" else field).partition(b".")
    if not (whole.isdigit() and (fraction.isdigit() or not dot)):
        raise ValueError(field)
    return float(field)


def line_loop(path, what: str, *layouts) -> list[list]:
    """The rows of a tab-separated file read line by line: the reference
    the one-pass readers are held to.

    Each layout is a tuple of field parsers, one a column, which raise
    ValueError on a field they refuse; the first layout that reads every
    line gives the rows.  A line of spaces and tabs alone is skipped, and
    one `\r` before a line's end is dropped.  When no layout reads the
    file, a DataError names the first line that no layout reads past.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    stops = []
    for layout in layouts:
        rows = []
        for lineno, line in enumerate(lines, start=1):
            fields = line.removesuffix(b"\r").split(b"\t")
            if not b"".join(fields).strip(b" "):
                continue
            try:
                if len(fields) != len(layout):
                    raise ValueError(fields)
                rows.append([parse(field) for parse, field in zip(layout, fields)])
            except ValueError:
                stops.append(lineno)
                break
        else:
            return rows
    lineno = max(stops)
    shown = lines[lineno - 1].decode("utf-8", errors="backslashreplace")
    raise DataError(f"{path}: line {lineno} is not {what}: {shown!r}")


def untrained_checkpoint(width: int, T: int = 5, seed: int = 0, hidden=(8,), tag: str = "CGD") -> Checkpoint:
    """A checkpoint with random (untrained) weights; enough for chain math."""
    sched = make_schedule(T, 1e-4, 0.02)
    params = init_params((width, *hidden, width), 4, seed=seed, model_tag=tag)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, seed=seed)
    return Checkpoint(params=params, sched=sched, config=cfg, epoch=1, valid_metric=float("nan"))


def whole_scores(params, sched, rows, T_inf=None, seed=0, stage=STAGE_ITEM) -> np.ndarray:
    """unconditional_scores' blocks stacked: every row's denoised scores."""
    blocks = unconditional_scores(params, sched, rows, T_inf, seed, stage, lambda span, a, b: a)
    return np.vstack(blocks)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
