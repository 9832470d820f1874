"""pyproject.toml lists as runtime dependencies exactly the third-party
packages that the source imports; test-only packages go in the test extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports():
    """Top-level names of every non-stdlib package src/subtrack/*.py imports,
    at module level or inside a function."""
    names = set()
    for path in (ROOT / "src" / "subtrack").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"subtrack"}


def runtime_dependencies():
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in doc["project"]["dependencies"]
    }


def test_runtime_dependencies_are_what_the_source_imports():
    imports = third_party_imports()
    assert "numpy" in imports
    assert runtime_dependencies() == imports
