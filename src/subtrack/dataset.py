"""CMAPSS-format ingestion and the per-regime feature normalization.

A data file is whitespace-separated text, one row per cycle:

    unit cycle setting1 setting2 setting3 sensor1 ... sensor21

Ground-truth files carry one integer RUL per test unit, in unit order.
`synthetic.save_cmapss` writes a fleet back to that text.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

ID_LIMIT = 2.0**53  # bound on |unit| and |cycle|: float64 holds every integer below it

# Rows per block of every pass over a fleet: the parse's row checks, the
# settings clustering's labelling, the normalizer fit and the pipeline's
# normalized blocks and routing. Each temporary of a pass is then block-sized
# beside the fleet matrix and its per-row outputs. On the bench fleets (seed
# 1; 2-vCPU Xeon, one BLAS thread; commit 0b9de8d), medians of 12 runs with
# no bytecode cache and of 21 routing passes over one fitted model, whose
# distances are bit-identical at every size; the normalizer fit's sums are
# not, so a run at another size changes output bits:
#
#   block (rows)                              1,024  2,048  4,096  8,192
#   fd001-benchmark peak RSS (MB)              37.7   37.9   39.2   41.2
#   K=6 routing of the fd004 train fleet (ms)    65     63     64    116
ROW_BLOCK = 1024

# The directory beside text files that holds their parsed (rows, N_COLUMNS)
# tables: CACHE_DIR/<file name>/<stat key>.npy, one entry per file name.
CACHE_DIR = ".subtrack-cache"


class TrajectorySet:
    """A unit table of distinct unit ids: one read-only (rows, D) float64
    matrix in unit order, `matrix[bounds[i]:bounds[i + 1]]` the rows of unit
    `unit_ids[i]`, row j of a unit its cycle j+1. Iterating yields each
    unit's rows as read-only views. A fleet's columns are the N_SETTINGS
    settings, then the sensors; those of its curves `health.CURVE_COLUMNS`.

    A float64 matrix is taken over without a copy, in any memory order: the
    bulk parse hands over a strided view of the table numpy parsed."""

    def __init__(self, matrix: np.ndarray, unit_ids: list[int], bounds: list[int]):
        if len(unit_ids) == 0:
            raise ValidationError("empty trajectory set")
        if len(set(unit_ids)) != len(unit_ids):
            raise ValidationError("duplicate unit ids in trajectory set")
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValidationError("features must be a 2-d array")
        for unit, a, b in zip(unit_ids, bounds, bounds[1:]):
            if b <= a:
                raise ValidationError(f"unit {unit}: empty trajectory")
        self.matrix.flags.writeable = False
        self.unit_ids, self.bounds = list(unit_ids), list(bounds)

    @classmethod
    def stack(cls, unit_ids: list[int], arrays: list[np.ndarray]) -> TrajectorySet:
        """The set of one (L, D) array of rows per unit, stacked once."""
        if len({np.shape(a)[1:] for a in arrays}) > 1:
            raise ValidationError("trajectories differ in feature count")
        matrix = np.concatenate(arrays, dtype=float) if arrays else np.empty((0, 0))
        return cls(matrix, unit_ids, [0, *accumulate(map(len, arrays))])

    def __len__(self) -> int:
        return len(self.unit_ids)

    def __iter__(self):
        return (self.matrix[a:b] for a, b in zip(self.bounds, self.bounds[1:]))


def load_cmapss(path: str | Path) -> TrajectorySet:
    """Parse a 26-column CMAPSS-format text file into a TrajectorySet.

    Raises DataFormatError with the offending line number on malformed rows,
    non-finite values (nan, inf), ids that are not whole numbers or of
    magnitude ID_LIMIT or more (float64 would change them), ValidationError
    when a unit's cycle indices are not 1, 2, 3, ... Lines are checked in
    file order and cycles once the file is read, so a file with several
    faults reports its first malformed or non-finite line, even before a
    cycle gap in an earlier unit.

    The file is parsed with one numpy call, and the set's matrix is a view
    of the table it returns. When that parse or a check on its result fails,
    the line parser reads the file again and decides: it raises the error,
    or returns what the file holds (a unit id written as 1_0, say, which
    numpy does not parse, or rows that are not in (unit, cycle) order).

    A table the bulk parse accepts is kept in CACHE_DIR beside the file, and
    a later read of the file with the same stat key loads it and checks it
    again (_parse_cmapss_bulk); the set is bit-identical either way.
    """
    path = Path(path)
    tset = _parse_cmapss_bulk(path)
    return tset if tset is not None else _parse_cmapss_lines(path)


def _parse_cmapss_bulk(path: Path) -> TrajectorySet | None:
    """The fleet from one numpy parse, or None when the line parser must
    decide. Accepts only files the line parser accepts, with the same
    values: float tokens are correctly rounded in both.

    Only a file whose rows are in (unit, cycle) order is read here, and the
    set's matrix is the read-only view of columns 2-25 of the (rows, 26)
    table numpy returns, so the parse holds one fleet-sized buffer. A file
    in any other row order goes to the line parser, which sorts it.

    A regular file's table is looked up first as its entry in CACHE_DIR
    (_entry_name). An entry that loads and passes the same checks is the
    table; any other is a miss, and _parse_and_keep parses the text."""
    with open(path) as fh:
        st = os.fstat(fh.fileno())
        # a pipe's stat does not change with what it holds: never cached
        cache = _cache_dir(path.parent) if stat.S_ISREG(st.st_mode) else None
        if cache is None:
            return _fleet(read_table(fh))
        entry = cache / path.name / _entry_name(st)
        tset = _cached_fleet(entry)
        return tset if tset is not None else _parse_and_keep(fh, st, entry)


def _cache_dir(parent: Path) -> Path | None:
    """CACHE_DIR in parent, made with mode 0o700 when missing; None when it
    cannot be made, or is not a directory of this user that no one else may
    write: its entries are loaded as tables, and written in it by name."""
    cache = parent / CACHE_DIR
    try:
        with suppress(FileExistsError):
            os.mkdir(cache, 0o700)
        st = os.lstat(cache)
    except OSError:
        return None
    mine = stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
    return cache if mine else None


def _entry_name(st: os.stat_result) -> str:
    """The cache entry of a file of stat st: its device, inode, size, mtime
    and ctime in ns."""
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    return "_".join(map(str, key)) + ".npy"


def _cached_fleet(entry: Path) -> TrajectorySet | None:
    """The fleet of a cache entry; None when it is missing or fails to load
    or to pass _fleet's checks."""
    from . import persist  # persist imports this module: a call-time import

    try:
        return _fleet(persist.read_npy(entry, np.dtype("<f8"), 2))
    except ValidationError:
        return None


def _parse_and_keep(fh, st: os.stat_result, entry: Path) -> TrajectorySet | None:
    """_fleet of the parse of fh, a text file of stat st, its table kept as
    entry when the file was last changed before the parse began and not
    during it, and the file's older entries removed.

    The parse's start is the ctime of the entry's temporary file, made
    before the parse. The file system that stamped the text stamps it too,
    so a same-size rewrite within one timestamp tick, which keeps the stat
    key, cannot leave a stale entry whatever the tick and however far the
    local clock is from the file system's (git's racy-clean rule). An
    OSError (a read-only directory, a full disk) leaves the run as it is,
    with no message, and a read that keeps nothing removes an empty
    CACHE_DIR."""
    from . import persist

    cache = entry.parent.parent
    try:
        # a new file of a random name (O_EXCL): never written through a link
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
    except OSError:
        return _fleet(read_table(fh))
    out = open(fd, "wb")
    kept = False
    try:
        table = read_table(fh)
        tset = _fleet(table)
        started = os.fstat(fd).st_ctime_ns  # unchanged until the write
        if tset is not None and max(st.st_ctime_ns, st.st_mtime_ns) < started \
                and _entry_name(os.fstat(fh.fileno())) == entry.name:
            with suppress(OSError):
                with out:
                    persist.write_npy(out, table)
                entry.parent.mkdir(0o700, exist_ok=True)
                os.replace(tmp, entry)
                kept = True
                for other in os.listdir(entry.parent):
                    if other != entry.name:
                        os.unlink(entry.parent / other)
    finally:
        with suppress(OSError):
            out.close()
        if not kept:
            with suppress(OSError):
                os.unlink(tmp)
            with suppress(OSError):
                os.rmdir(cache)
    return tset


def _fleet(table: np.ndarray | None) -> TrajectorySet | None:
    """The fleet of a (rows, N_COLUMNS) table whose rows are in (unit,
    cycle) order and pass _valid_rows, as a view of the table; None for any
    other table."""
    if table is None or table.shape[1] != N_COLUMNS or len(table) == 0 \
            or not _valid_rows(table):
        return None
    ids = table[:, :2].astype(np.int64)  # exact: whole numbers below 2**53
    runs = _cycle_runs(ids[:, 0], ids[:, 1])
    return None if runs is None else TrajectorySet(table[:, 2:], *runs)


def _valid_rows(rows: np.ndarray) -> bool:
    """No nan or inf in rows, and unit and cycle ids that are whole numbers of
    magnitude below ID_LIMIT, checked ROW_BLOCK rows at a time."""
    for a in range(0, len(rows), ROW_BLOCK):
        block = rows[a : a + ROW_BLOCK]
        ids = block[:, :2]
        if not (np.isfinite(block).all() and (abs(ids) < ID_LIMIT).all() and (ids % 1 == 0).all()):
            return False
    return True


def _parse_cmapss_lines(path: Path) -> TrajectorySet:
    """Line-by-line parse; the reference for what load_cmapss accepts and
    for every message it raises. Lines `unit cycle value ...` are numbered
    from 1 and whitespace-only lines are skipped. DataFormatError names path
    and line of a malformed row, a non-finite value or an id not whole or of
    magnitude ID_LIMIT or more; ValidationError names a unit whose cycles
    are not 1..L."""
    rows_by_unit: dict[int, list[tuple[int, np.ndarray]]] = {}
    with open(path) as fh, decoding(path):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != N_COLUMNS:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {N_COLUMNS} fields, got {len(parts)}"
                )
            try:
                values = np.array([float(p) for p in parts])
                unit = int(values[0])
                cycle = int(values[1])
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric field ({exc})")
            if not np.isfinite(values).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite value (nan or inf)")
            if max(abs(unit), abs(cycle)) >= ID_LIMIT:
                raise DataFormatError(f"{path}:{lineno}: unit or cycle of magnitude 2**53 or more")
            if unit != values[0] or cycle != values[1]:
                raise DataFormatError(f"{path}:{lineno}: unit and cycle must be whole numbers")
            rows_by_unit.setdefault(unit, []).append((cycle, values[2:]))

    if not rows_by_unit:
        raise DataFormatError(f"{path}: no data rows")

    units, arrays = sorted(rows_by_unit), []
    for unit in units:
        rows = sorted(rows_by_unit[unit], key=lambda r: r[0])
        cycles = [c for c, _ in rows]
        if cycles != list(range(1, len(cycles) + 1)):
            raise ValidationError(
                f"{path}: unit {unit} has non-contiguous cycle indices"
            )
        arrays.append(np.array([v for _, v in rows]))
    return TrajectorySet.stack(units, arrays)


@contextmanager
def decoding(path: Path):
    """Turn a UnicodeDecodeError while reading path into a DataFormatError
    naming the file (the decoder reads ahead, so no line is named)."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file ({exc})") from exc


def read_table(fh) -> np.ndarray | None:
    """np.loadtxt's 2-d table of the rest of an open text file, with no
    comment character; None when numpy rejects the text or warns (it warns
    on a file with no data rows): the caller's line parser then decides."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None


def _cycle_runs(units: np.ndarray, cycles: np.ndarray) -> tuple[list[int], list[int]] | None:
    """(units, bounds) of rows in ascending unit order whose cycles run 1,
    2, ..., L within each unit; None for any other rows."""
    if not (units[1:] >= units[:-1]).all():
        return None
    starts = np.flatnonzero(np.r_[True, units[1:] != units[:-1]])
    steps = np.diff(cycles)
    steps[starts[1:] - 1] = 1  # the step into each unit; its first cycle is checked apart
    if not ((steps == 1).all() and (cycles[starts] == 1).all()):
        return None
    return units[starts].tolist(), [*starts.tolist(), len(units)]


def load_rul_targets(path: str | Path, n_units: int) -> list[int]:
    """Read one whole RUL >= 0 per line; must match the test fleet size exactly."""
    path = Path(path)
    targets = []
    with open(path) as fh, decoding(path):
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric RUL value")
            if not (math.isfinite(value) and value >= 0 and value.is_integer()):
                raise DataFormatError(f"{path}:{lineno}: RUL must be a whole number >= 0")
            targets.append(int(value))
    if len(targets) != n_units:
        raise ValidationError(
            f"{path}: {len(targets)} RUL lines for {n_units} test units"
        )
    return targets


# ---------------------------------------------------------------------------
# normalization

@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score statistics, one table per operating regime; every
    row is transformed with the table of its regime label. Training fits
    it (`fit.fit_normalizer`) on the N_SENSORS sensor columns, the ones its
    subspaces track.

    Constant features are masked: their output is 0, keeping the column
    count and indices aligned with the sensors.
    """

    mean: np.ndarray  # (R, F)
    std: np.ndarray  # (R, F); 1.0 where masked
    mask: np.ndarray  # (R, F) bool; True = constant feature

    @property
    def n_regimes(self) -> int:
        return self.mean.shape[0]

    @property
    def n_features(self) -> int:
        return self.mean.shape[1]

    def transform_inplace(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Z-score each row in place with the table of its regime label.

        `rows` must be writable: the fleet path passes block-sized copies of
        a TrajectorySet's read-only matrix, one ROW_BLOCK at a time, so the
        `mean[labels]` and `std[labels]` temporaries stay block-sized too."""
        if rows.shape[1] != self.n_features:
            raise ValidationError(
                f"normalizer fitted on {self.n_features} features, got {rows.shape[1]}"
            )
        rows -= self.mean[labels]
        rows /= self.std[labels]
        rows[self.mask[labels]] = 0.0
