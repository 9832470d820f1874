"""Checks on the source tree as text: pyproject.toml lists as runtime
dependencies exactly the third-party packages that the source imports
(test-only packages go in the test extra), the console script calls the
function that `python -m subtrack.cli` calls, no np.load can unpickle, only
the synthetic-fleet generator uses numpy.random, and every module.name that
the source or the README names exists."""

import ast
import importlib
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


def pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def runtime_dependencies():
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in pyproject()["project"]["dependencies"]
    }


def test_runtime_dependencies_are_what_the_source_imports():
    imports = third_party_imports()
    assert "numpy" in imports
    assert runtime_dependencies() == imports


def test_console_script_exits_as_python_m_does():
    # both process entry points must take the exit path that freezes GC
    module, func = pyproject()["project"]["scripts"]["subtrack"].split(":")
    assert module == "subtrack.cli"
    tree = ast.parse((ROOT / "src" / "subtrack" / "cli.py").read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    calls = [node.func.id for node in ast.walk(block)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls == [func]


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


# the only code that may use numpy.random: dataset's synthetic-fleet generator
SYNTHETIC_FLEET_CODE = {
    ("dataset.py", name)
    for name in ("_random_orthonormal", "_make_regimes", "_sample_unit", "generate_synthetic")
}


def uses_np_random(node) -> bool:
    """node names numpy.random: np.random / numpy.random, or an import of it."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module.startswith("numpy.random") or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names)
        )
    return False


def np_random_uses():
    """(file, top-level definition, line) of every use of numpy.random in
    src/subtrack/*.py; the definition is None at module level."""
    for path in sorted((ROOT / "src" / "subtrack").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if uses_np_random(node):
                    yield path.name, owner, node.lineno


def test_numpy_random_only_in_synthetic_fleet_code():
    # importing numpy.random costs ~6 MB of RSS; no command but synth needs it
    uses = list(np_random_uses())
    assert uses, "no numpy.random use found; the check has gone stale"
    assert [u for u in uses if u[:2] not in SYNTHETIC_FLEET_CODE] == []


@pytest.mark.parametrize(
    "line",
    ["np.random.default_rng(0)", "import numpy.random", "from numpy import random",
     "from numpy.random import default_rng", "numpy.random.seed(1)"],
)
def test_numpy_random_scan_sees(line):
    assert any(uses_np_random(node) for node in ast.walk(ast.parse(line)))



MODULES = ("dataset", "evaluation", "health", "multiscale", "persist", "rul", "subspace", "cli")
MODULE_REFERENCE = re.compile(rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def references(text: str) -> list[str]:
    """Every module.name in text that names a subtrack module; file names
    such as health.py are not references."""
    return [m.group(0) for m in MODULE_REFERENCE.finditer(text) if m.group(2) != "py"]


def test_every_module_reference_resolves():
    # a comment or README line naming a deleted function misleads every
    # later reader: each name must still exist in its module
    paths = [*sorted((ROOT / "src" / "subtrack").glob("*.py")), ROOT / "README.md"]
    refs = [
        (path.name, lineno, ref)
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for ref in references(line)
    ]
    assert refs, "no module reference found; the check has gone stale"
    stale = [
        (name, lineno, ref) for name, lineno, ref in refs
        if not hasattr(importlib.import_module(f"subtrack.{ref.split('.')[0]}"), ref.split(".")[1])
    ]
    assert stale == []


@pytest.mark.parametrize(
    "line, refs",
    [("see `health.analyze_rows`", ["health.analyze_rows"]),
     ("evaluation.py and rul.py", []),
     ("the evaluation. Then", [])],
)
def test_module_reference_scan_sees(line, refs):
    assert references(line) == refs
