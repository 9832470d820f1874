"""Checks on the source tree as text: pyproject.toml lists as runtime
dependencies exactly the third-party packages that the source imports
(test-only packages go in the test extra), the console script calls the
function that `python -m subtrack.cli` calls, `import subtrack` loads no
submodule, no np.load or np.save can pickle, only persist names a model
directory's files or calls np.save and np.load, only the synthetic-fleet
generator uses numpy.random, every module.name that the source or the
README names exists, and every `subtrack` command in the README parses."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from subtrack.cli import build_parser

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


def test_package_import_loads_no_submodule():
    # `import subtrack` runs before every command: a re-export in __init__
    # would load modules that the command itself may never need
    code = "import subtrack, sys; print(*(m for m in sys.modules if m.startswith('subtrack.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def np_calls(attr):
    """(file, line, call) of every np.<attr>(...) in src/subtrack/*.py."""
    for path, node in source_nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield path.name, node.lineno, node


def without_allow_pickle_false(attr):
    """(file, line) of every np.<attr> call not passed allow_pickle=False;
    fails when the source makes no np.<attr> call."""
    calls = list(np_calls(attr))
    assert calls, f"no np.{attr} call found; the check has gone stale"
    return [
        (name, lineno)
        for name, lineno, call in calls
        if not any(
            kw.arg == "allow_pickle"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        )
    ]


def test_every_np_load_refuses_pickles():
    # a model directory is data: np.load must never run a pickle it holds
    assert without_allow_pickle_false("load") == []


def test_every_np_save_refuses_pickles():
    # every array written is plain data: an object array must fail to save
    # rather than become a file that np.load(allow_pickle=False) refuses
    assert without_allow_pickle_false("save") == []


# what a model directory holds; persist alone writes and reads it
MODEL_DIR_FILES = ("model.json", "library_sigma.npy", "train_curves.npy")


def model_dir_uses():
    """(file, line, what) of every model-directory file name and every
    np.save or np.load call in src/subtrack/*.py."""
    for path in sorted((ROOT / "src" / "subtrack").glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for name in MODEL_DIR_FILES:
                if name in line:
                    yield path.name, lineno, name
    for path, node in source_nodes():
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("save", "load")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield path.name, node.lineno, f"np.{node.attr}"


def test_only_persist_touches_a_model_directory():
    # one module owns the directory's format: a file name or an array read
    # elsewhere is a second place to change when the format does
    uses = list(model_dir_uses())
    seen = {what for name, _, what in uses if name == "persist.py"}
    assert seen >= {*MODEL_DIR_FILES, "np.save", "np.load"}, "the check has gone stale"
    assert [u for u in uses if u[0] != "persist.py"] == []


# the only code that may use numpy.random: dataset's synthetic-fleet generator
SYNTHETIC_FLEET_CODE = {
    ("dataset.py", name)
    for name in ("_random_orthonormal", "_make_regimes", "generate_synthetic")
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
    tree = ast.parse((ROOT / "src" / "subtrack" / "dataset.py").read_text())
    defined = {("dataset.py", getattr(top, "name", None)) for top in tree.body}
    assert SYNTHETIC_FLEET_CODE - defined == set(), "the allowlist names a deleted definition"
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


def sh_commands(text: str) -> list[list[str]]:
    """The arguments of every `subtrack ...` command in the sh blocks of a
    markdown text, continuation lines joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("subtrack ")]


def test_readme_commands_parse():
    # a retired flag left in an example is a usage error for whoever copies it
    commands = sh_commands((ROOT / "README.md").read_text())
    assert len(commands) >= 4, "no README command found; the check has gone stale"
    parser, failed = build_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            failed.append(" ".join(argv))
    assert failed == []


def test_sh_command_scan_sees():
    text = ("```sh\n# a comment\nsubtrack infer --data d \\\n    --out o  # note\n"
            "pip install .\n```\nsubtrack train\n")
    assert sh_commands(text) == [["infer", "--data", "d", "--out", "o"]]


PROBES = {
    # hypothesis imports libcst to report a failing property, and that import
    # warns of a deprecation the suite's filters would turn into an
    # INTERNALERROR that skips every later test
    "failing-property": '''
from hypothesis import given, settings, strategies as st

@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers(0, 10))
def test_property(x):
    assert x < 0
''',
    # any other deprecation still fails its test
    "other-deprecation": '''
import warnings

def test_deprecated_call():
    warnings.warn("numpy.fleet_mean is deprecated", DeprecationWarning)
''',
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_failing_test_ends_in_a_failure_not_an_internal_error(tmp_path, probe):
    path = tmp_path / "test_probe.py"
    path.write_text(PROBES[probe] + "\n\ndef test_passing():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pytest", "-q",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
