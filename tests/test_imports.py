"""Each module imports on its own, in a fresh interpreter.

The package's __init__ imports nothing, so a test process that happens
to import modules in a lucky order could hide an import cycle that a
user importing one module first would hit.  The patterns the modules
compile must also compile on Python 3.10, the oldest that
pyproject.toml supports.  The trainer takes its validation as a
function, so it imports no module that ranks or runs chains.  The state
files have one owner, `store`, and no module reaches into another's
underscore names.
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


def sibling_names(module: str) -> list[tuple[str, str]]:
    """(source module, name) for each name cgsorec.<module> takes from
    another module of the package: each `from .source import name`, and
    each `source.name` read off a module bound by `from . import source`."""
    with open(os.path.join(SRC, "cgsorec", f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cgsorec")):
            source = (node.module or "").removeprefix("cgsorec").lstrip(".")
            if source:
                found += [(source, alias.name) for alias in node.names]
            else:
                bound.update({alias.asname or alias.name: alias.name for alias in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
            found.append((bound[node.value.id], node.attr))
    return found


def test_no_module_takes_another_modules_underscore_name():
    assert ("guidance", "joint_chains") in sibling_names("pipeline")  # the walk sees both forms
    assert ("pipeline", "ensure_bundle") in sibling_names("cli")
    private = sorted(
        f"{module} takes {source}.{name}"
        for module in MODULES
        for source, name in sibling_names(module)
        if name.startswith("_")
    )
    assert not private, private


def test_checkpoint_records_and_files_belong_to_store():
    # guidance and config read a Checkpoint or a TrainConfig, never the
    # trainer; the trainer and the pipeline hold no file format of their own
    for module in ("guidance", "config"):
        assert "trainer" not in {source for source, _ in sibling_names(module)}, module
    assert ("store", "Checkpoint") in sibling_names("guidance")
    assert ("store", "TrainConfig") in sibling_names("config")
    for module in ("trainer", "pipeline"):
        with open(os.path.join(SRC, "cgsorec", f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        assert "json" not in imported, module
