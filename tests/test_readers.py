"""The CMAPSS bulk reader against the line parser it falls back to, and the
curve CSV reader against the values its files were written from.

dataset.load_cmapss parses a file with one np.loadtxt call and falls back to
its line parser when that parse or a check on its result fails. The line
parser is the reference: the bulk path may accept only files it accepts,
with bit-equal arrays, and every error comes from it.
persist.read_curves_csv checks the header, then parses the rows with the
same line parser, dataset.read_unit_rows: on the cases it shares with the
CMAPSS reader it accepts exactly the files the CMAPSS line parser accepts.
One form and one codec: both tables are a TrajectorySet, parsed by
read_unit_rows and written by dataset.write_unit_rows.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack import dataset, persist
from subtrack.dataset import (
    N_SETTINGS, SynthConfig, TrajectorySet, generate_synthetic, load_cmapss, save_cmapss,
)
from subtrack.errors import DataFormatError, PrognosticsError
from subtrack.health import CURVE_COLUMNS
from subtrack.persist import CURVE_CSV_HEADER, read_curves_csv, write_curves_csv

CMAPSS = (load_cmapss, dataset._parse_cmapss_bulk, dataset._parse_cmapss_lines)


def trajectory_bits(tset):
    return [
        (u, type(u), t[:, :N_SETTINGS].shape, t[:, :N_SETTINGS].tobytes(),
         t[:, N_SETTINGS:].tobytes())
        for u, t in zip(tset.unit_ids, tset)
    ]


def curve_bits(curves):
    return [
        (u, type(u), *(column.tobytes() for column in c.T)) for u, c in zip(curves.unit_ids, curves)
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


def curve_outcome(path):
    """"ok" when read_curves_csv reads the file, "error" when it refuses it
    with a PrognosticsError."""
    try:
        read_curves_csv(path)
    except PrognosticsError:
        return "error"
    return "ok"


# ---------------------------------------------------------------------------
# valid files: the CMAPSS paths give bit-equal arrays, the curve reader the
# values that were written

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


@st.composite
def curve_texts(draw):
    """A curve CSV text, and {unit: {cycle: (raw, scaled, sigma)}} from the
    int and float of each token written."""
    rows, eol = draw(unit_rows())
    id_format = draw(st.sampled_from(["{}", "{:+d}", " {} "]))
    fmt = draw(st.sampled_from(VALUE_FORMATS))
    lines, written = [], {}
    for unit, cycle in rows:
        fields = [id_format.format(unit), id_format.format(cycle)]
        fields += [fmt(v) for v in draw(st.lists(FLOATS, min_size=3, max_size=3))]
        lines.append(",".join(fields))
        written.setdefault(int(fields[0]), {})[int(fields[1])] = tuple(map(float, fields[2:]))
    return CURVE_CSV_HEADER + eol + join_lines(draw, lines, eol), written


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


@settings(max_examples=150, deadline=None)
@given(text_written=curve_texts())
def test_valid_curve_files_bit_equal_on_both_paths(tmp_path_factory, text_written):
    text, written = text_written
    path = write_text(tmp_path_factory, text, "train_curves.csv")
    curves = read_curves_csv(path)
    assert [(u, type(u)) for u in curves.unit_ids] == [(u, int) for u in sorted(written)]
    for unit, c in zip(curves.unit_ids, curves):
        rows = written[unit]
        assert sorted(rows) == list(range(1, len(c) + 1))
        for column, values in enumerate(c.T):
            want = np.array([rows[cycle][column] for cycle in range(1, len(c) + 1)])
            assert values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# odd and malformed files: the line parser decides

def cmapss_lines():
    return [
        " ".join(map(str, [unit, cycle] + [0.5 * unit + cycle + i for i in range(24)]))
        for unit in (1, 2) for cycle in (1, 2, 3)
    ]


def curve_lines():
    return [CURVE_CSV_HEADER] + [
        f"{unit},{cycle},{0.1 * cycle!r},{0.01 * cycle!r},{1 - 0.1 * cycle!r}"
        for unit in (1, 2) for cycle in (1, 2, 3)
    ]


def set_field(lines, lineno, column, token, sep):
    """Replace one field of a 1-based line."""
    lines = list(lines)
    fields = lines[lineno - 1].split(sep)
    fields[column] = token
    lines[lineno - 1] = (sep or " ").join(fields)
    return lines


def set_unit(lines, first, token, sep):
    """Write unit 1's id, on all three of its lines, as token."""
    for lineno in range(first, first + 3):
        lines = set_field(lines, lineno, 0, token, sep)
    return lines


def swap(lines, a, b):
    lines = list(lines)
    lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    return lines


def insert(lines, lineno, text):
    return lines[: lineno - 1] + [text] + lines[lineno - 1:]


def edit_cases(sep, first):
    """Cases shared by both readers: (name, edit of the lines). first is the
    number of the first data line; units 1 and 2 have cycles 1 to 3 each."""
    cases = [
        ("unit 1.0", lambda ls: set_unit(ls, first, "1.0", sep)),
        ("unit +1", lambda ls: set_unit(ls, first, "+1", sep)),
        ("unit 1_0", lambda ls: set_unit(ls, first, "1_0", sep)),
        ("unit 0x10", lambda ls: set_unit(ls, first, "0x10", sep)),
        ("unit #", lambda ls: set_unit(ls, first, "#", sep)),
        ("unit 1e400", lambda ls: set_unit(ls, first, "1e400", sep)),
        ("unit nan", lambda ls: set_unit(ls, first, "nan", sep)),
        ("unit 2**53 + 1", lambda ls: set_unit(ls, first, str(2**53 + 1), sep)),
        ("unit 1e300", lambda ls: set_unit(ls, first, "1e300", sep)),
        ("unit 1.5", lambda ls: set_unit(ls, first, "1.5", sep)),
        ("cycle 2.5", lambda ls: set_field(ls, first + 1, 1, "2.5", sep)),
        ("cycle inf", lambda ls: set_field(ls, first + 1, 1, "inf", sep)),
        ("cycle -inf", lambda ls: set_field(ls, first + 1, 1, "-inf", sep)),
        ("blank line", lambda ls: insert(ls, first + 2, "")),
        ("whitespace-only line", lambda ls: insert(ls, first + 2, " \t ")),
        ("units out of order",
         lambda ls: ls[:first - 1] + ls[first + 2:] + ls[first - 1:first + 2]),
        ("cycles shuffled", lambda ls: swap(ls, first, first + 2)),
        ("duplicate cycle", lambda ls: set_field(ls, first + 1, 1, "1", sep)),
        ("cycle gap", lambda ls: set_field(ls, first + 2, 1, "4", sep)),
        ("cycles start at 0", lambda ls: set_field(ls, first + 3, 1, "0", sep)),
        ("value 1_0", lambda ls: set_field(ls, first + 1, -1, "1_0", sep)),
        ("value nan", lambda ls: set_field(ls, first + 4, -1, "nan", sep)),
        ("value 1e400", lambda ls: set_field(ls, first + 4, -1, "1e400", sep)),
        ("value 0x10", lambda ls: set_field(ls, first + 1, -1, "0x10", sep)),
        ("trailing comma", lambda ls: ls[:first] + [ls[first] + ","] + ls[first + 1:]),
        ("trailing comma everywhere",
         lambda ls: ls[:first - 1] + [line + "," for line in ls[first - 1:]]),
        ("NUL in a value", lambda ls: set_field(ls, first, -1, "1\x00", sep)),
        ("form feed before a separator",
         lambda ls: set_field(ls, first, 2, "0.5\x0c", sep)),
        ("U+2028 before a separator",
         lambda ls: set_field(ls, first, 2, "0.5\u2028", sep)),
        ("no data rows", lambda ls: ls[:first - 1]),
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
# whether read_curves_csv reads each case, as the CMAPSS line parser does:
# "ok" or "error"
CURVE_EXPECTED = {
    name: "error" if decided == "error" else "ok"
    for name, decided in CMAPSS_EXPECTED.items()
}


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("name,edit", edit_cases(None, 1))
def test_cmapss_readers_agree(tmp_path, name, edit, eol):
    path = tmp_path / "train.txt"
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + eol for line in edit(cmapss_lines())))
    assert check_agree(CMAPSS, path) == CMAPSS_EXPECTED[name]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("name,edit", edit_cases(",", 2))
def test_curve_readers_agree(tmp_path, name, edit, eol):
    path = tmp_path / "train_curves.csv"
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + eol for line in edit(curve_lines())))
    assert curve_outcome(path) == CURVE_EXPECTED[name]


@pytest.mark.parametrize(
    "text",
    ["", "unit_id,cycle\n1,1\n", CURVE_CSV_HEADER + ",extra\n1,1,0.1,0.1,0.9\n"],
    ids=["empty", "short header", "long header"],
)
def test_curve_header_checked_by_line_parser(tmp_path, text):
    path = tmp_path / "train_curves.csv"
    path.write_text(text)
    assert curve_outcome(path) == "error"


@pytest.mark.parametrize(
    "text",
    [b"\xff" + CURVE_CSV_HEADER.encode() + b"\n1,1,0.1,0.1,0.9\n",
     CURVE_CSV_HEADER.encode() + b"\n1,1,0.1,0.1,0.9\n\xff\n"],
    ids=["header", "body"],
)
def test_undecodable_curve_file_is_a_data_format_error(tmp_path, text):
    path = tmp_path / "train_curves.csv"
    path.write_bytes(text)
    assert curve_outcome(path) == "error"
    with pytest.raises(DataFormatError, match=f"{path}: not a text file"):
        read_curves_csv(path)


# ---------------------------------------------------------------------------
# the CMAPSS fast path is taken on valid input; curves round-trip

def refuse(path):
    raise AssertionError(f"line parser ran on {path}")


def test_bulk_paths_read_a_valid_fleet_and_library(tmp_path, monkeypatch):
    train, test, _, _ = generate_synthetic(
        SynthConfig(n_units=6, min_cycles=20, max_cycles=40, seed=11)
    )
    rng = np.random.default_rng(11)
    curves = TrajectorySet.stack(
        train.unit_ids, [rng.random((len(t), len(CURVE_COLUMNS))) for t in train]
    )
    save_cmapss(train, tmp_path / "train.txt")
    save_cmapss(test, tmp_path / "test.txt")
    write_curves_csv(curves, tmp_path / "train_curves.csv")
    # a numpy warning or behaviour change that made the bulk path give up
    # would otherwise pass unnoticed, at the old speed
    monkeypatch.setattr(dataset, "_parse_cmapss_lines", refuse)

    assert trajectory_bits(load_cmapss(tmp_path / "train.txt")) == trajectory_bits(train)
    assert trajectory_bits(load_cmapss(tmp_path / "test.txt")) == trajectory_bits(test)
    assert curve_bits(read_curves_csv(tmp_path / "train_curves.csv")) == curve_bits(curves)


def test_both_tables_share_one_parser_and_one_writer(tmp_path, monkeypatch):
    # CMAPSS files and curve CSVs are one kind of table: a second line
    # parser or writer for either would not go through these two functions
    calls = []

    def recording(name, func):
        def shim(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return shim

    for name in ("read_unit_rows", "write_unit_rows"):
        func = getattr(dataset, name)
        assert getattr(persist, name) is func
        for module in (dataset, persist):
            monkeypatch.setattr(module, name, recording(name, func))
    train, _, _, _ = generate_synthetic(
        SynthConfig(n_units=3, min_cycles=5, max_cycles=8, seed=3)
    )
    curves = TrajectorySet.stack(train.unit_ids, [t[:, -len(CURVE_COLUMNS):] for t in train])

    save_cmapss(train, tmp_path / "train.txt")
    write_curves_csv(curves, tmp_path / "train_curves.csv")
    assert calls == ["write_unit_rows"] * 2
    # rows out of (unit, cycle) order leave the bulk path to the line parser
    lines = (tmp_path / "train.txt").read_text().splitlines(keepends=True)
    (tmp_path / "shuffled.txt").write_text("".join(lines[::-1]))
    shuffled = load_cmapss(tmp_path / "shuffled.txt")
    read_back = read_curves_csv(tmp_path / "train_curves.csv")
    assert calls == ["write_unit_rows"] * 2 + ["read_unit_rows"] * 2
    # and both read into one form
    assert type(shuffled) is type(read_back) is TrajectorySet
    assert trajectory_bits(shuffled) == trajectory_bits(train)
    assert curve_bits(read_back) == curve_bits(curves)


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


def test_curve_csv_rows_hold_the_repr_of_each_value(tmp_path):
    # the writer formats a column at a time; each row must still read
    # unit,cycle,raw,scaled,sigma with every float as its shortest repr
    values = np.array([0.1, 1 / 3, 5e-324, 1e300, 0.0, 1.0, 2.0**-1074 * 3])
    unit_7 = np.column_stack([values, values / 7, values[::-1]])
    curves = TrajectorySet.stack([7, 12], [unit_7, np.array([[2.5, 0.25, 0.5]])])
    write_curves_csv(curves, tmp_path / "curves.csv")
    want = [CURVE_CSV_HEADER] + [
        f"{u},{i},{r!r},{s!r},{g!r}"
        for u, c in zip(curves.unit_ids, curves)
        for i, (r, s, g) in enumerate(c.tolist(), start=1)
    ]
    assert (tmp_path / "curves.csv").read_text() == "\n".join(want) + "\n"
    # the documented plain read-back of the export gives every value exactly
    table = np.loadtxt(tmp_path / "curves.csv", delimiter=",", skiprows=1)
    assert table[:, 2:].tobytes() == curves.matrix.tobytes()
