"""NumPy's own OpenBLAS, reached through ctypes (no package needed).

OpenBLAS rounds some products differently at other thread counts, and
its idle worker threads spin on their cores for a while after each
threaded product.  Inference holds the library to one thread while its
chains run (one_blas_thread); training releases the workers after each
gradient step (release_blas_workers), so that the one-core work between
two steps runs beside no spinning worker.  Where NumPy's OpenBLAS or
its functions cannot be found (another BLAS, or no /proc), neither does
anything.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, NamedTuple

import numpy as np


class _OpenBlas(NamedTuple):
    lib: ctypes.CDLL
    get: Callable[[], int]
    put: Callable[[int], None]
    shutdown: Callable[[], int] | None


@cache
def _openblas() -> _OpenBlas | None:
    """NumPy's own OpenBLAS, the library loaded from NumPy's install
    (/proc/self/maps): the getter and setter of its thread count, and its
    blas_thread_shutdown_, or None where it exports none.  None where
    there is no such library or it exports neither naming of the getter
    and setter."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {parts[5] for parts in map(str.split, fh) if len(parts) == 6}
    except OSError:
        return None
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path) or os.path.relpath(path, site)[:5] != "numpy":
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return _OpenBlas(lib, get, put, shutdown)
    return None


@contextmanager
def one_blas_thread():
    """Holds NumPy's OpenBLAS to one thread while the block runs, then
    restores the count it had; yields whether the hold was taken."""
    found = _openblas()
    if found is None:
        yield False
        return
    before = found.get()
    found.put(1)
    try:
        yield True
    finally:
        found.put(before)


def release_blas_workers() -> None:
    """Ends NumPy's OpenBLAS worker threads, which would otherwise spin
    until their timeout.  The next threaded product starts them again at
    the same thread count, so it rounds as it would have.  Call it only
    while no other thread is inside a BLAS call."""
    found = _openblas()
    if found is not None and found.shutdown is not None:
        found.shutdown()
