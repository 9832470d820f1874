"""Checks on the source tree as text: pyproject.toml lists as runtime
dependencies exactly the third-party packages that the source imports
(test-only packages go in the test extra), and no np.load can unpickle."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def source_nodes():
    """Every AST node of src/subtrack/*.py, with the file it comes from."""
    for path in sorted((ROOT / "src" / "subtrack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def third_party_imports():
    """Top-level names of every non-stdlib package src/subtrack/*.py imports,
    at module level or inside a function."""
    names = set()
    for _, node in source_nodes():
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"subtrack"}


def runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in doc["project"]["dependencies"]
    }


def test_runtime_dependencies_are_what_the_source_imports():
    imports = third_party_imports()
    assert "numpy" in imports
    assert runtime_dependencies() == imports


def np_load_calls():
    """(file, line, call) of every np.load(...) in src/subtrack/*.py."""
    for path, node in source_nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield path.name, node.lineno, node


def test_every_np_load_refuses_pickles():
    # a model directory is data: np.load must never run a pickle it holds
    calls = list(np_load_calls())
    assert calls, "no np.load call found; the check has gone stale"
    unsafe = [
        (name, lineno)
        for name, lineno, call in calls
        if not any(
            kw.arg == "allow_pickle"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        )
    ]
    assert unsafe == []
