"""The numpy bulk readers against the line parsers they fall back to.

dataset.load_cmapss and persist.read_curves_csv parse a file with one
np.loadtxt call and fall back to their line parser when that parse or a
check on its result fails. The line parser is the reference: the bulk path
may accept only files it accepts, with bit-equal arrays, and every error
comes from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtrack import dataset, persist
from subtrack.dataset import SynthConfig, generate_synthetic, load_cmapss, save_cmapss
from subtrack.errors import PrognosticsError, ValidationError
from subtrack.health import HiCurve
from subtrack.persist import CURVE_CSV_HEADER, read_curves_csv, write_curves_csv

CMAPSS = (load_cmapss, dataset._parse_cmapss_bulk, dataset._parse_cmapss_lines)
CURVES = (read_curves_csv, persist._read_curves_bulk, persist._read_curves_lines)


def trajectory_bits(trajs):
    return [
        (t.unit_id, type(t.unit_id), t.settings.shape, t.settings.tobytes(),
         t.sensors.tobytes())
        for t in trajs
    ]


def curve_bits(curves):
    return [
        (c.unit_id, type(c.unit_id), c.sigma.tobytes(), c.raw_dist.tobytes(),
         c.scaled_dist.tobytes())
        for c in curves
    ]


def bits(result):
    result = list(result)
    if result and isinstance(result[0], HiCurve):
        return curve_bits(result)
    return trajectory_bits(result)


def outcome(read, path):
    """("ok", bits of the result) or (exception type, message)."""
    try:
        return "ok", bits(read(path))
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
        assert bits(fast) == ref[1]
        return "fast"
    return "fallback" if ref[0] == "ok" else "error"


# ---------------------------------------------------------------------------
# valid files: both paths give bit-equal arrays

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUE_FORMATS = (repr, "{:.6e}".format, "{:.3f}".format, "{:g}".format)


@st.composite
def unit_rows(draw, max_units=4, max_len=4):
    """Shuffled (unit id, cycle) pairs of a fleet, and the line end."""
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=max_units))
    ids = draw(
        st.lists(st.integers(-3, 10**6), min_size=len(lengths),
                 max_size=len(lengths), unique=True)
    )
    rows = [(u, c) for u, n in zip(ids, lengths) for c in range(1, n + 1)]
    return draw(st.permutations(rows)), draw(st.sampled_from(["\n", "\r\n"]))


def join_lines(draw, lines, eol):
    """Lines with blank lines slipped in, ending in eol."""
    out = []
    for line in lines:
        if draw(st.booleans()) and draw(st.booleans()):
            out.append("")
        out.append(line)
    return "".join(line + eol for line in out)


@st.composite
def cmapss_texts(draw):
    rows, eol = draw(unit_rows())
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
    rows, eol = draw(unit_rows())
    id_format = draw(st.sampled_from(["{}", "{:+d}", " {} "]))
    fmt = draw(st.sampled_from(VALUE_FORMATS))
    lines = []
    for unit, cycle in rows:
        values = draw(st.lists(FLOATS, min_size=3, max_size=3))
        fields = [id_format.format(unit), id_format.format(cycle)]
        lines.append(",".join(fields + [fmt(v) for v in values]))
    return CURVE_CSV_HEADER + eol + join_lines(draw, lines, eol)


def write_text(tmp_path_factory, text, name):
    path = tmp_path_factory.mktemp("readers") / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=150, deadline=None)
@given(text=cmapss_texts())
def test_valid_cmapss_files_bit_equal_on_both_paths(tmp_path_factory, text):
    path = write_text(tmp_path_factory, text, "train.txt")
    assert check_agree(CMAPSS, path) == "fast"


@settings(max_examples=150, deadline=None)
@given(text=curve_texts())
def test_valid_curve_files_bit_equal_on_both_paths(tmp_path_factory, text):
    path = write_text(tmp_path_factory, text, "train_curves.csv")
    assert check_agree(CURVES, path) == "fast"


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


# what decides each case: "fast" (the bulk path), "fallback" (the line
# parser accepts what numpy does not parse) or "error"
CMAPSS_EXPECTED = {
    "unit 1.0": "fast", "unit +1": "fast", "unit 1_0": "fallback",
    "unit 0x10": "error", "unit #": "error", "unit 1e400": "error",
    "unit nan": "error", "cycle inf": "error", "cycle -inf": "error",
    "blank line": "fast", "whitespace-only line": "fast",
    "units out of order": "fast", "cycles shuffled": "fast",
    "duplicate cycle": "error", "cycle gap": "error", "cycles start at 0": "error",
    "value 1_0": "fallback", "value nan": "error", "value 1e400": "error",
    "value 0x10": "error", "trailing comma": "error",
    "trailing comma everywhere": "error", "NUL in a value": "error",
    "form feed before a separator": "fast", "U+2028 before a separator": "fast",
    "no data rows": "error",
}
CURVE_EXPECTED = dict(
    CMAPSS_EXPECTED,
    **{"unit 1.0": "error", "whitespace-only line": "error",
       "no data rows": "fallback"},
)


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
    assert check_agree(CURVES, path) == CURVE_EXPECTED[name]


@pytest.mark.parametrize(
    "text",
    ["", "unit_id,cycle\n1,1\n", CURVE_CSV_HEADER + ",extra\n1,1,0.1,0.1,0.9\n"],
    ids=["empty", "short header", "long header"],
)
def test_curve_header_checked_by_line_parser(tmp_path, text):
    path = tmp_path / "train_curves.csv"
    path.write_text(text)
    assert check_agree(CURVES, path) == "error"


@pytest.mark.parametrize(
    "text",
    [b"\xff" + CURVE_CSV_HEADER.encode() + b"\n1,1,0.1,0.1,0.9\n",
     CURVE_CSV_HEADER.encode() + b"\n1,1,0.1,0.1,0.9\n\xff\n"],
    ids=["header", "body"],
)
def test_undecodable_curve_file_is_a_validation_error(tmp_path, text):
    path = tmp_path / "train_curves.csv"
    path.write_bytes(text)
    assert check_agree(CURVES, path) == "error"
    with pytest.raises(ValidationError, match=f"{path}: not a text file"):
        read_curves_csv(path)


# ---------------------------------------------------------------------------
# the fast path is taken on valid input

def refuse(path):
    raise AssertionError(f"line parser ran on {path}")


def test_bulk_paths_read_a_valid_fleet_and_library(tmp_path, monkeypatch):
    train, test, _, _ = generate_synthetic(
        SynthConfig(n_units=6, min_cycles=20, max_cycles=40, seed=11)
    )
    rng = np.random.default_rng(11)
    curves = [
        HiCurve(unit_id=t.unit_id, sigma=rng.random(len(t)),
                raw_dist=rng.random(len(t)), scaled_dist=rng.random(len(t)))
        for t in train
    ]
    save_cmapss(train, tmp_path / "train.txt")
    save_cmapss(test, tmp_path / "test.txt")
    write_curves_csv(curves, tmp_path / "train_curves.csv")
    # a numpy warning or behaviour change that made the bulk path give up
    # would otherwise pass unnoticed, at the old speed
    monkeypatch.setattr(dataset, "_parse_cmapss_lines", refuse)
    monkeypatch.setattr(persist, "_read_curves_lines", refuse)

    assert trajectory_bits(load_cmapss(tmp_path / "train.txt")) == trajectory_bits(train)
    assert trajectory_bits(load_cmapss(tmp_path / "test.txt")) == trajectory_bits(test)
    assert curve_bits(read_curves_csv(tmp_path / "train_curves.csv")) == curve_bits(curves)


def test_curve_csv_rows_hold_the_repr_of_each_value(tmp_path):
    # the writer formats a column at a time; each row must still read
    # unit,cycle,raw,scaled,sigma with every float as its shortest repr
    values = np.array([0.1, 1 / 3, 5e-324, 1e300, 0.0, 1.0, 2.0**-1074 * 3])
    curves = [
        HiCurve(unit_id=7, sigma=values[::-1].copy(), raw_dist=values, scaled_dist=values / 7),
        HiCurve(unit_id=12, sigma=np.array([0.5]), raw_dist=np.array([2.5]),
                scaled_dist=np.array([0.25])),
    ]
    write_curves_csv(curves, tmp_path / "curves.csv")
    want = [CURVE_CSV_HEADER] + [
        f"{c.unit_id},{i},{r!r},{s!r},{g!r}"
        for c in curves
        for i, (r, s, g) in enumerate(
            zip(c.raw_dist.tolist(), c.scaled_dist.tolist(), c.sigma.tolist()), start=1
        )
    ]
    assert (tmp_path / "curves.csv").read_text() == "\n".join(want) + "\n"
    # the documented plain read-back of the export gives every value exactly
    table = np.loadtxt(tmp_path / "curves.csv", delimiter=",", skiprows=1)
    for column, field in enumerate(("raw_dist", "scaled_dist", "sigma"), start=2):
        want_column = np.concatenate([getattr(c, field) for c in curves])
        assert table[:, column].tobytes() == want_column.tobytes()
