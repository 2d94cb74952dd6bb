"""Each module imports on its own, in a fresh interpreter.

The package's __init__ imports nothing, so a test process that happens
to import modules in a lucky order could hide an import cycle that a
user importing one module first would hit.  The patterns the modules
compile must also compile on Python 3.10, the oldest that
pyproject.toml supports.  The trainer takes its validation as a
function, so it imports no module that ranks or runs chains.
"""

import ast
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



def test_trainer_imports_no_module_that_ranks_or_runs_chains():
    # validation comes in as a function (pipeline.recall_validator), so
    # the trainer, function bodies included, imports none of these
    with open(os.path.join(SRC, "cgsorec", "trainer.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            parts |= {part for alias in node.names for part in alias.name.split(".")}
    assert {"denoiser", "schedule"} <= parts  # the walk sees the trainer's imports
    assert not parts & {"guidance", "evaluation", "pipeline", "cli"}, sorted(parts)
