"""The CMAPSS bulk reader against the line parser it falls back to, and the
curve exports against the tables they were written from.

dataset.load_cmapss parses a file with one np.loadtxt call and falls back to
its line parser when that parse or a check on its result fails. The line
parser is the reference: the bulk path may accept only files it accepts,
with bit-equal arrays, and every error comes from it. CMAPSS text has one
line parser, dataset._parse_cmapss_lines, and one writer, synthetic.save_cmapss.
A curve table is the same form in memory, a TrajectorySet, but it is
exported as one `.npy` array by persist.write_curves, which np.load reads
back exactly.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack import dataset, synthetic
from subtrack.dataset import ID_LIMIT, N_SETTINGS, TrajectorySet, load_cmapss
from subtrack.synthetic import SynthConfig, generate_synthetic, save_cmapss
from subtrack.errors import PrognosticsError
from subtrack.health import CURVE_COLUMNS
from subtrack.persist import write_curves

CMAPSS = (load_cmapss, dataset._parse_cmapss_bulk, dataset._parse_cmapss_lines)


def trajectory_bits(tset):
    return [
        (u, type(u), t[:, :N_SETTINGS].shape, t[:, :N_SETTINGS].tobytes(),
         t[:, N_SETTINGS:].tobytes())
        for u, t in zip(tset.unit_ids, tset)
    ]


def outcome(read, path):
    """("ok", bits of the result) or (exception type, message)."""
    try:
        return "ok", trajectory_bits(read(path))
    except PrognosticsError as exc:
        return type(exc), str(exc)


def check_agree(readers, path):
    """The public reader gives what the line parser gives, and the bulk path
    accepts only what the line parser accepts, with bit-equal arrays.
    Returns which path decided: "fast", "fallback" or "error"."""
    public, bulk, lines = readers
    ref = outcome(lines, path)
    assert outcome(public, path) == ref
    fast = bulk(path)
    if fast is not None:
        assert ref[0] == "ok", "the bulk path accepted a file the line parser rejects"
        assert trajectory_bits(fast) == ref[1]
        return "fast"
    return "fallback" if ref[0] == "ok" else "error"


# ---------------------------------------------------------------------------
# valid files: the CMAPSS paths give bit-equal arrays

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUE_FORMATS = (repr, "{:.6e}".format, "{:.3f}".format, "{:g}".format)


@st.composite
def unit_rows(draw, order="any", max_units=4, max_len=4):
    """The (unit id, cycle) pairs of a fleet, and the line end. The pairs
    come in any order, in (unit, cycle) order ("sorted") or in any other
    order ("shuffled", a fleet of at least two rows)."""
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=max_units))
    ids = draw(
        st.lists(st.integers(-3, 10**6), min_size=len(lengths),
                 max_size=len(lengths), unique=True)
    )
    rows = sorted((u, c) for u, n in zip(ids, lengths) for c in range(1, n + 1))
    if order != "sorted":
        assume(order == "any" or len(rows) > 1)
        drawn = draw(st.permutations(rows))
        # the rotation of sorted rows is out of order
        rows = drawn[1:] + drawn[:1] if order == "shuffled" and drawn == rows else drawn
    return rows, draw(st.sampled_from(["\n", "\r\n"]))


def join_lines(draw, lines, eol):
    """Lines with blank lines slipped in, ending in eol."""
    out = []
    for line in lines:
        if draw(st.booleans()) and draw(st.booleans()):
            out.append("")
        out.append(line)
    return "".join(line + eol for line in out)


@st.composite
def cmapss_texts(draw, order):
    rows, eol = draw(unit_rows(order))
    id_format = draw(st.sampled_from(["{}", "{:+d}", "{}.0"]))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t", "\x0c"]))
    fmt = draw(st.sampled_from(VALUE_FORMATS))
    lines = []
    for unit, cycle in rows:
        values = draw(st.lists(FLOATS, min_size=24, max_size=24))
        fields = [id_format.format(unit), id_format.format(cycle)]
        line = sep.join(fields + [fmt(v) for v in values])
        lines.append(draw(st.sampled_from(["", " "])) + line)
    return join_lines(draw, lines, eol)


def write_text(tmp_path_factory, text, name):
    path = tmp_path_factory.mktemp("readers") / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=150, deadline=None)
@given(text=cmapss_texts("sorted"))
def test_valid_cmapss_files_bit_equal_on_both_paths(tmp_path_factory, text):
    path = write_text(tmp_path_factory, text, "train.txt")
    assert check_agree(CMAPSS, path) == "fast"


@settings(max_examples=150, deadline=None)
@given(text=cmapss_texts("shuffled"))
def test_shuffled_cmapss_files_fall_back_bit_equal(tmp_path_factory, text):
    # rows out of (unit, cycle) order are left to the line parser, which sorts them
    path = write_text(tmp_path_factory, text, "train.txt")
    assert check_agree(CMAPSS, path) == "fallback"


# ---------------------------------------------------------------------------
# odd and malformed files: the line parser decides

def cmapss_lines():
    return [
        " ".join(map(str, [unit, cycle] + [0.5 * unit + cycle + i for i in range(24)]))
        for unit in (1, 2) for cycle in (1, 2, 3)
    ]


def set_field(lines, lineno, column, token):
    """Replace one field of a 1-based line."""
    lines = list(lines)
    fields = lines[lineno - 1].split()
    fields[column] = token
    lines[lineno - 1] = " ".join(fields)
    return lines


def set_unit(lines, token):
    """Write unit 1's id, on all three of its lines (1 to 3), as token."""
    for lineno in (1, 2, 3):
        lines = set_field(lines, lineno, 0, token)
    return lines


def swap(lines, a, b):
    lines = list(lines)
    lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    return lines


def insert(lines, lineno, text):
    return lines[: lineno - 1] + [text] + lines[lineno - 1:]


def edit_cases():
    """(name, edit of the lines) of each case; lines 1 to 3 are unit 1's
    cycles 1 to 3, lines 4 to 6 unit 2's."""
    cases = [
        ("unit 1.0", lambda ls: set_unit(ls, "1.0")),
        ("unit +1", lambda ls: set_unit(ls, "+1")),
        ("unit 1_0", lambda ls: set_unit(ls, "1_0")),
        ("unit 0x10", lambda ls: set_unit(ls, "0x10")),
        ("unit #", lambda ls: set_unit(ls, "#")),
        ("unit 1e400", lambda ls: set_unit(ls, "1e400")),
        ("unit nan", lambda ls: set_unit(ls, "nan")),
        ("unit 2**53 + 1", lambda ls: set_unit(ls, str(2**53 + 1))),
        ("unit 1e300", lambda ls: set_unit(ls, "1e300")),
        ("unit 1.5", lambda ls: set_unit(ls, "1.5")),
        ("cycle 2.5", lambda ls: set_field(ls, 2, 1, "2.5")),
        ("cycle inf", lambda ls: set_field(ls, 2, 1, "inf")),
        ("cycle -inf", lambda ls: set_field(ls, 2, 1, "-inf")),
        ("blank line", lambda ls: insert(ls, 3, "")),
        ("whitespace-only line", lambda ls: insert(ls, 3, " \t ")),
        ("units out of order", lambda ls: ls[3:] + ls[:3]),
        ("cycles shuffled", lambda ls: swap(ls, 1, 3)),
        ("duplicate cycle", lambda ls: set_field(ls, 2, 1, "1")),
        ("cycle gap", lambda ls: set_field(ls, 3, 1, "4")),
        ("cycles start at 0", lambda ls: set_field(ls, 4, 1, "0")),
        ("value 1_0", lambda ls: set_field(ls, 2, -1, "1_0")),
        ("value nan", lambda ls: set_field(ls, 5, -1, "nan")),
        ("value 1e400", lambda ls: set_field(ls, 5, -1, "1e400")),
        ("value 0x10", lambda ls: set_field(ls, 2, -1, "0x10")),
        ("trailing comma", lambda ls: ls[:1] + [ls[1] + ","] + ls[2:]),
        ("trailing comma everywhere", lambda ls: [line + "," for line in ls]),
        ("NUL in a value", lambda ls: set_field(ls, 1, -1, "1\x00")),
        ("form feed before a separator", lambda ls: set_field(ls, 1, 2, "0.5\x0c")),
        ("U+2028 before a separator", lambda ls: set_field(ls, 1, 2, "0.5\u2028")),
        ("no data rows", lambda ls: []),
    ]
    return [pytest.param(name, edit, id=name) for name, edit in cases]


# what decides each CMAPSS case: "fast" (the bulk path), "fallback" (the
# line parser accepts what the bulk path leaves to it: a token numpy does not
# parse, or rows out of (unit, cycle) order) or "error"
CMAPSS_EXPECTED = {
    "unit 1.0": "fast", "unit +1": "fast", "unit 1_0": "fallback",
    "unit 0x10": "error", "unit #": "error", "unit 1e400": "error",
    "unit nan": "error", "unit 2**53 + 1": "error", "unit 1e300": "error",
    "unit 1.5": "error", "cycle 2.5": "error",
    "cycle inf": "error", "cycle -inf": "error",
    "blank line": "fast", "whitespace-only line": "fast",
    "units out of order": "fallback", "cycles shuffled": "fallback",
    "duplicate cycle": "error", "cycle gap": "error", "cycles start at 0": "error",
    "value 1_0": "fallback", "value nan": "error", "value 1e400": "error",
    "value 0x10": "error", "trailing comma": "error",
    "trailing comma everywhere": "error", "NUL in a value": "error",
    "form feed before a separator": "fast", "U+2028 before a separator": "fast",
    "no data rows": "error",
}


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("name,edit", edit_cases())
def test_cmapss_readers_agree(tmp_path, settle, name, edit, eol):
    # with the file old enough to be kept, the bulk path's second read loads
    # the entry its first wrote; a file the line parser decides has none,
    # and no cache directory is left beside it
    path = tmp_path / "train.txt"
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + eol for line in edit(cmapss_lines())))
    settle(path)
    decided = check_agree(CMAPSS, path)
    assert decided == CMAPSS_EXPECTED[name]
    cache = tmp_path / dataset.CACHE_DIR
    assert sorted(os.listdir(cache / path.name) if cache.exists() else []) == (
        [dataset._entry_name(os.stat(path))] if decided == "fast" else [])


# ---------------------------------------------------------------------------
# the CMAPSS fast path is taken on valid input

def refuse(path):
    raise AssertionError(f"line parser ran on {path}")


def test_bulk_paths_read_a_valid_fleet_and_library(tmp_path, monkeypatch):
    train, test, _, _ = generate_synthetic(
        SynthConfig(n_units=6, min_cycles=20, max_cycles=40, seed=11)
    )
    save_cmapss(train, tmp_path / "train.txt")
    save_cmapss(test, tmp_path / "test.txt")
    # a numpy warning or behaviour change that made the bulk path give up
    # would otherwise pass unnoticed, at the old speed
    monkeypatch.setattr(dataset, "_parse_cmapss_lines", refuse)

    assert trajectory_bits(load_cmapss(tmp_path / "train.txt")) == trajectory_bits(train)
    assert trajectory_bits(load_cmapss(tmp_path / "test.txt")) == trajectory_bits(test)


def test_both_tables_share_one_parser_and_one_writer(tmp_path, monkeypatch):
    # CMAPSS text has one line parser and one writer, and a curve table is
    # the same form in memory but no text: its export goes through neither
    calls = []

    def recording(name, func):
        def shim(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return shim

    for module, name in ((dataset, "_parse_cmapss_lines"), (synthetic, "save_cmapss")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    train, _, _, _ = generate_synthetic(
        SynthConfig(n_units=3, min_cycles=5, max_cycles=8, seed=3)
    )
    curves = TrajectorySet.stack(train.unit_ids, [t[:, -len(CURVE_COLUMNS):] for t in train])

    synthetic.save_cmapss(train, tmp_path / "train.txt")
    write_curves(curves, tmp_path / "train_curves.npy")
    assert calls == ["save_cmapss"]
    # rows out of (unit, cycle) order leave the bulk path to the line parser
    lines = (tmp_path / "train.txt").read_text().splitlines(keepends=True)
    (tmp_path / "shuffled.txt").write_text("".join(lines[::-1]))
    shuffled = load_cmapss(tmp_path / "shuffled.txt")
    assert calls == ["save_cmapss", "_parse_cmapss_lines"]
    assert type(shuffled) is type(curves) is TrajectorySet
    assert trajectory_bits(shuffled) == trajectory_bits(train)


def test_benchmark_inputs_take_the_bulk_path(tmp_path):
    # the benchmark's fleet generator writes every data file in (unit, cycle)
    # order; a file it wrote that left the bulk path would time the line parser
    fleet = Path(__file__).resolve().parents[1] / "perfbench" / "fleet.py"
    for out, extra, n_data in [("fleet", [], 2), ("units", ["--unit-files", "2"], 3)]:
        subprocess.run(
            [sys.executable, str(fleet), "--fleet", "fd001", "--seed", "1",
             "--out", str(tmp_path / out), *extra],
            check=True, capture_output=True,
        )
        data = [f for f in (tmp_path / out).glob("*.txt") if not f.name.startswith("RUL")]
        assert len(data) == n_data
        for f in data:
            assert dataset._parse_cmapss_bulk(f) is not None, f


# ---------------------------------------------------------------------------
# curve exports: one (rows, 5) float64 .npy array per table

# the values a text export had to spell exactly: the smallest subnormal,
# huge and non-terminating values, and the signed zero
EDGE_VALUES = [0.1, 1 / 3, 5e-324, 1e300, 0.0, -0.0, 1.0, 2.0**-1074 * 3]
CURVE_VALUES = st.one_of(st.sampled_from(EDGE_VALUES), FLOATS)


@st.composite
def curve_tables(draw):
    """A curve table of distinct unit ids up to ID_LIMIT - 1 in magnitude,
    one-row units among them."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    limit = int(ID_LIMIT) - 1
    ids = draw(st.lists(
        st.one_of(st.integers(-limit, limit), st.sampled_from([limit, -limit, 0, 1])),
        min_size=len(lengths), max_size=len(lengths), unique=True,
    ))
    arrays = [
        np.array(draw(st.lists(st.tuples(CURVE_VALUES, CURVE_VALUES, CURVE_VALUES),
                               min_size=n, max_size=n)))
        for n in lengths
    ]
    return TrajectorySet.stack(sorted(ids), arrays)


def assert_export_holds(path, curves):
    table = np.load(path, allow_pickle=False)
    assert table.dtype == np.float64
    assert table.shape == (len(curves.matrix), 2 + len(CURVE_COLUMNS))
    # ids and cycles exact: Python compares a float and an int exactly
    assert table[:, :2].tolist() == [
        [u, c] for u, t in zip(curves.unit_ids, curves) for c in range(1, len(t) + 1)
    ]
    assert table[:, 2:].tobytes() == curves.matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(curves=curve_tables())
def test_curve_export_round_trips_exactly(tmp_path_factory, curves):
    path = tmp_path_factory.mktemp("curves") / "hi_curves.npy"
    write_curves(curves, path)
    assert_export_holds(path, curves)


@settings(max_examples=100, deadline=None)
@given(curves=curve_tables())
def test_curve_export_is_np_save_of_the_whole_table(tmp_path_factory, curves):
    # written one unit at a time, the file is byte for byte the np.save of
    # the fleet-sized table it never builds
    lengths = np.diff(curves.bounds)
    table = np.column_stack([
        np.repeat(curves.unit_ids, lengths),
        np.concatenate([np.arange(1, n + 1) for n in lengths]),
        curves.matrix,
    ])
    out = tmp_path_factory.mktemp("curves")
    write_curves(curves, out / "hi_curves.npy")
    np.save(out / "table.npy", table, allow_pickle=False)
    assert (out / "hi_curves.npy").read_bytes() == (out / "table.npy").read_bytes()


def test_curve_export_builds_no_fleet_sized_table(tmp_path):
    # 50 units of 200 cycles: a (10,000, 5) table would take 400 kB, the
    # buffer of one unit 8 kB
    curves = TrajectorySet.stack(list(range(1, 51)), [np.full((200, 3), 0.5)] * 50)
    tracemalloc.start()
    try:
        write_curves(curves, tmp_path / "hi_curves.npy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(curves.matrix) * 5 * 8


def test_curve_export_holds_edge_values_and_one_row_units(tmp_path):
    values = np.array(EDGE_VALUES)
    unit_7 = np.column_stack([values, values / 7, values[::-1]])
    curves = TrajectorySet.stack(
        [-(2**53 - 1), 7, 12, 2**53 - 1],
        [np.array([[1e300, 5e-324, 1 / 3]]), unit_7, np.array([[2.5, 0.25, 0.5]]),
         np.array([[-0.0, 0.0, 1.0]])],
    )
    write_curves(curves, tmp_path / "hi_curves.npy")
    assert_export_holds(tmp_path / "hi_curves.npy", curves)
    table = np.load(tmp_path / "hi_curves.npy", allow_pickle=False)
    assert table[:, :2].tolist() == [
        [-(2**53 - 1), 1], *([7, c] for c in range(1, len(values) + 1)), [12, 1], [2**53 - 1, 1]
    ]
