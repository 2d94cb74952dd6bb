"""Each module imports on its own, in a fresh interpreter.

The package's __init__ imports nothing, so a test process that happens
to import modules in a lucky order could hide an import cycle that a
user importing one module first would hit.  The patterns the modules
compile must also compile on Python 3.10, the oldest that
pyproject.toml supports.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import cgsorec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cgsorec.__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(cgsorec.__path__))


def test_modules_found():
    assert {"cli", "guidance", "pipeline", "trainer"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", f"import cgsorec.{module}"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr


# Python 3.11 added possessive quantifiers and atomic groups; 3.10 refuses them.
NEWER_REGEX = ("++", "*+", "?+", "}+", "(?>")


def test_no_compiled_pattern_needs_python_3_11():
    patterns = {
        f"{module}.{name}": value.pattern
        for module in MODULES
        for name, value in vars(importlib.import_module(f"cgsorec.{module}")).items()
        if isinstance(value, re.Pattern)
    }
    assert {"corpus._PAIRS", "corpus._RATED", "pipeline._LISTS"} <= set(patterns)
    newer = {
        name: token
        for name, pattern in patterns.items()
        for token in NEWER_REGEX
        if (token.encode() if isinstance(pattern, bytes) else token) in pattern
    }
    assert not newer, newer
