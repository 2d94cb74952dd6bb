"""Each module imports on its own, in a fresh interpreter.

The package's __init__ imports nothing, so a test process that happens
to import modules in a lucky order could hide an import cycle that a
user importing one module first would hit.  The patterns the modules
compile must also compile on Python 3.10, the oldest that
pyproject.toml supports.  The trainer takes its validation as a
function, so it imports no module that ranks or runs chains.  The state
files have one owner, `store`, and no module reaches into another's
underscore names.  There is one exception class per exit code, no
public name that only the tests use, one loop over ranking blocks, and
one function that matches a file's grammar.
"""

import ast
import glob
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import cgsorec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cgsorec.__file__)))
REPO = os.path.dirname(SRC)
MODULES = sorted(m.name for m in pkgutil.iter_modules(cgsorec.__path__))


def parse(path) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def module_tree(module: str) -> ast.Module:
    return parse(os.path.join(SRC, "cgsorec", f"{module}.py"))


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


def test_only_read_columns_matches_a_file_grammar():
    # a grammar's repeated group keeps a frame for each line one match
    # reads, so read_columns matches a file a piece at a time; another
    # caller of a pattern's match would hold a frame for every line again
    matching = ("match", "fullmatch", "search", "finditer", "findall")
    callers = sorted(
        f"{module}.{node.name}"
        for module in MODULES
        for node in ast.walk(module_tree(module))
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and getattr(call.func, "attr", None) in matching
            for call in ast.walk(node)
        )
    )
    assert callers == ["corpus.read_columns"], callers


def imported_modules(module: str) -> set[str]:
    """Each part of each module name cgsorec.<module> imports, function
    bodies included, and each name a `from` import takes."""
    parts = set()
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.ImportFrom):
            parts |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            parts |= {part for alias in node.names for part in alias.name.split(".")}
    return parts


def test_trainer_imports_no_module_that_ranks_or_runs_chains():
    # validation comes in as a function (pipeline.recall_validator), so
    # the trainer, function bodies included, imports none of these
    parts = imported_modules("trainer")
    assert {"denoiser", "schedule"} <= parts  # the walk sees the trainer's imports
    assert not parts & {"guidance", "evaluation", "pipeline", "cli"}, sorted(parts)


def test_no_module_imports_contextvars():
    # a helper thread runs plain functions: none depends on its caller's
    # context (np.errstate among it), since each checked stage sets its own
    assert "concurrent" in imported_modules("trainer")  # the walk sees the imports
    users = [module for module in MODULES if "contextvars" in imported_modules(module)]
    assert not users, users


def sibling_names(module: str) -> list[tuple[str, str]]:
    """(source module, name) for each name cgsorec.<module> takes from
    another module of the package: each `from .source import name`, and
    each `source.name` read off a module bound by `from . import source`."""
    tree = module_tree(module)
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
        imported = {alias.name for node in ast.walk(module_tree(module))
                    if isinstance(node, ast.Import) for alias in node.names}
        assert "json" not in imported, module


def test_errors_defines_exactly_the_classes_cli_main_catches():
    # one class per exit code: another class either escapes main as a
    # traceback or is caught through a base, where nothing tells it apart
    defined = {node.name for node in module_tree("errors").body if isinstance(node, ast.ClassDef)}
    main = next(node for node in module_tree("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)
              for name in ast.walk(node.type) if isinstance(name, ast.Name)}
    assert "DataError" in caught  # the walk sees main's handlers
    assert defined == caught


def names_read(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each name `tree` reads: a variable, an attribute,
    or a name an import binds (a dotted one by its last part)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name.rpartition(".")[2], node.lineno))
    return found


def public_definitions(tree: ast.Module):
    """(dotted name, node) for each public top-level function and class,
    and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def spans_sites() -> dict:
    """bench/spans.py's SITES, read without importing bench/."""
    tree = parse(os.path.join(REPO, "bench", "spans.py"))
    return ast.literal_eval(next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SITES"
    ))


def names_used_outside_src() -> set[str]:
    """The names bench/ reads, the last part of each label in
    bench/spans.py's SITES (the tracer wraps what it names), and the words
    in README.md's code spans and blocks."""
    names = set()
    for path in glob.glob(os.path.join(REPO, "bench", "*.py")):
        names |= {name for name, _ in names_read(parse(path))}
    names |= {label.rpartition(".")[2] for label in spans_sites()}
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        code = re.findall(r"```.*?```|`[^`\n]*`", fh.read(), re.S)
    return names | set(re.findall(r"\w+", " ".join(code)))


def test_every_public_name_has_a_user_outside_its_own_body():
    # a function only the tests call belongs to the tests (tests/reference.py)
    trees = {module: module_tree(module) for module in MODULES}
    read = {module: names_read(tree) for module, tree in trees.items()}
    outside = names_used_outside_src()
    assert {"q_sample", "planted"} <= outside  # a SITES label and README's code count
    unused = sorted(
        f"{module}.{dotted}"
        for module, tree in trees.items()
        for dotted, node in public_definitions(tree)
        if node.name not in outside and not any(
            name == node.name and not (user == module and node.lineno <= line <= node.end_lineno)
            for user, found in read.items() for name, line in found
        )
    )
    assert not unused, unused


def test_evaluation_ranks_through_one_block_loop():
    # topk_lists ranks one w and a grid alike: a second ranking loop would
    # read ROW_BLOCK, or call the block ranker, in a second function
    functions = {node.name: node for node in module_tree("evaluation").body
                 if isinstance(node, ast.FunctionDef)}
    readers = sorted(name for name, node in functions.items()
                     if "ROW_BLOCK" in {found for found, _ in names_read(node)})
    assert readers == ["topk_lists"], readers
    callers = sorted(name for name, node in functions.items() if any(
        isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_rank"
        for call in ast.walk(node)
    ))
    assert callers == ["topk_lists"], callers


def test_every_noqa_import_is_a_site_or_a_bench_import():
    # a name imported only for bench/ to find: once bench/spans.py stops
    # wrapping it there and no bench/ script imports it, the re-export goes
    wrapped = {tuple(pair) for pairs in spans_sites().values() for pair in pairs}
    imported = {
        (node.module.partition(".")[2], alias.name)
        for path in glob.glob(os.path.join(REPO, "bench", "*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cgsorec.")
        for alias in node.names
    }
    reexports = []
    for module in MODULES:
        with open(os.path.join(SRC, "cgsorec", f"{module}.py"), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        reexports += [
            (module, alias.name)
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ImportFrom)
            if "# noqa: F401" in "".join(lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names
        ]
    unused = sorted(pair for pair in reexports if pair not in wrapped | imported)
    assert not unused, unused


def test_the_chain_driver_is_a_plain_function():
    # _chain_rows reduces its own blocks, so its BLAS hold and its workers
    # end with the call: no guidance function is a generator, and the
    # driver takes the chain knobs it reads, not a whole GuidanceConfig
    tree = module_tree("guidance")
    yields = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert not yields, yields
    driver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_chain_rows")
    args = driver.args.args + driver.args.kwonlyargs
    assert "reduce" in [arg.arg for arg in args]  # the walk sees the driver's parameters
    configs = [arg.arg for arg in args if arg.annotation is not None
               and "GuidanceConfig" in {found for found, _ in names_read(arg.annotation)}]
    assert not configs, configs
