"""NumPy's own OpenBLAS, reached through ctypes (no package needed).

OpenBLAS rounds some products differently at other thread counts, so
the program holds the library to one thread wherever it runs products:
while inference's chains run, and for the whole of training
(one_blas_thread).  Where NumPy's OpenBLAS or its functions cannot be
found (another BLAS, or no /proc), the hold does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, NamedTuple

import numpy as np


class _OpenBlas(NamedTuple):
    get: Callable[[], int]
    put: Callable[[int], None]


@cache
def _openblas() -> _OpenBlas | None:
    """The getter and setter of the thread count of NumPy's own OpenBLAS,
    the library loaded from NumPy's install (/proc/self/maps).  None
    where there is no such library or it exports neither naming of
    them."""
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
                return _OpenBlas(get, put)
    return None


@contextmanager
def one_blas_thread():
    """Holds NumPy's OpenBLAS to one thread while the block runs, then
    restores the count it had; does nothing where _openblas finds no
    such library."""
    found = _openblas()
    if found is None:
        yield
        return
    before = found.get()
    found.put(1)
    try:
        yield
    finally:
        found.put(before)

