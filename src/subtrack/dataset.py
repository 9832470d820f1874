"""CMAPSS-format ingestion, feature normalization and synthetic fleet generation.

A data file is whitespace-separated text, one row per cycle:

    unit cycle setting1 setting2 setting3 sensor1 ... sensor21

Ground-truth files carry one integer RUL per test unit, in unit order.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError, ValidationError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

ID_LIMIT = 2.0**53  # bound on |unit| and |cycle|: float64 holds every integer below it

# Rows per block of every pass over a fleet: the parse's row checks, the
# settings clustering's labelling, the normalizer fit and the pipeline's
# normalized blocks and routing. Each temporary of a pass is then block-sized
# beside the fleet matrix and its per-row outputs. On the bench fleets (seed
# 1; 2-vCPU Xeon, one BLAS thread), with routing's distances bit-identical
# at every size:
#
#   block (rows)                              1,024  2,048  4,096  8,192
#   fd001-benchmark peak RSS (MB)              40.8   41.1   42.2   44.2
#   K=6 routing of the fd004 train fleet (ms)    68     66     66    111
ROW_BLOCK = 1024

# features with sample std below this, relative to max(1, |mean|), are
# treated as constant and masked: a column holding one value gets a std of
# rounding size, which grows with the value
CONSTANT_STD = 1e-12


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
    in any other row order goes to the line parser, which sorts it."""
    with open(path) as fh:
        table = read_table(fh)
    if table is None or table.shape[1] != N_COLUMNS or not _valid_rows(table):
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


def save_cmapss(tset: TrajectorySet, path: str | Path) -> None:
    """Write a TrajectorySet back to 26-column text, each unit's rows `unit
    cycle value ...`, cycles 1..L, separated by spaces; values round-trip
    exactly. Each column of a unit is one map of float.__repr__ and str.join
    joins the rows: no Python code runs per row."""
    cycles = list(map(str, range(1, max(np.diff(tset.bounds)) + 1)))
    with open(path, "w") as fh:
        for unit, rows in zip(tset.unit_ids, tset):
            values = [map(float.__repr__, a.tolist()) for a in rows.T]
            lines = zip(repeat(str(unit)), cycles, *values)  # ends with the columns
            fh.write("\n".join(map(" ".join, lines)) + "\n")


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
    row is transformed with the table of its regime label. The pipeline fits
    it on the N_SENSORS sensor columns, the ones its subspaces track.

    Constant features (std below CONSTANT_STD * max(1, |mean|)) are masked:
    their output is 0, keeping the column count and indices aligned with the
    sensors.
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


def fit_normalizer(rows: np.ndarray, labels: np.ndarray, n_regimes: int) -> Normalizer:
    """Fit z-score statistics over a (rows, features) matrix, one table per
    regime in range(n_regimes); `labels` holds each row's regime. A regime
    with no rows gets an all-masked table. A mean or std that overflows (a
    huge value) raises NumericalError.

    Mean and variance take two passes over the rows, ROW_BLOCK at a time:
    the column sums, then the sums of squared deviations from the mean
    (the stable two-pass form; Chan, Golub & LeVeque, Am. Stat. 1983). No
    temporary is larger than a block, and no regime's rows are copied
    whole. Summing by blocks rounds otherwise than one sum over all rows,
    so the tables agree with `mean(axis=0)` and `std(axis=0)` of each
    regime's rows to rounding: within a relative 1.2e-14 on the bench fleets."""
    # a regime with no rows divides its sums of 0 by 1: mean 0 and std 0, masked
    n_rows = np.maximum(np.bincount(labels, minlength=n_regimes), 1)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mean = _regime_sums(rows, labels, n_regimes) / n_rows
        sd = np.sqrt(_regime_sums(rows, labels, n_regimes, center=mean) / n_rows)
    overflow = ~(np.isfinite(mean) & np.isfinite(sd)).all(axis=1)
    if overflow.any():
        raise NumericalError(f"regime {np.argmax(overflow)}: feature mean or std overflows")
    mask = sd < CONSTANT_STD * np.maximum(1.0, np.abs(mean))
    return Normalizer(mean=mean, std=np.where(mask, 1.0, sd), mask=mask)


def _regime_sums(rows: np.ndarray, labels: np.ndarray, n_regimes: int, center=None) -> np.ndarray:
    """The (n_regimes, features) column sums of each regime's rows or, given
    a (n_regimes, features) center, of their squared deviations from it,
    taken ROW_BLOCK rows at a time."""
    sums = np.zeros((n_regimes, rows.shape[1]))
    for a in range(0, len(rows), ROW_BLOCK):
        block, block_labels = rows[a : a + ROW_BLOCK], labels[a : a + ROW_BLOCK]
        for r in range(n_regimes):
            x = block[block_labels == r]  # a copy: the deviations are formed in place
            if center is not None:
                x -= center[r]
                x *= x
            sums[r] += x.sum(axis=0)
            del x  # freed before the next copy is made
    return sums


# ---------------------------------------------------------------------------
# synthetic fleets

@dataclass(frozen=True)
class SynthConfig:
    """Generator for fleets whose healthy rows lie on a known affine subspace.

    Healthy rows are c + B z + noise with z drawn from the per-axis spreads;
    after the onset cycle an off-subspace drift component grows linearly at
    drift_rate per cycle, which is exactly the quantity the residual term of
    the subspace distance should pick up. An invalid field raises
    ValidationError on construction.
    """

    n_units: int = 50  # in the train fleet and in the test fleet
    subspace_dim: int = 3
    n_regimes: int = 1
    noise_std: float = 0.01
    drift_onset_fraction: float = 0.5
    drift_rate: float = 0.02
    seed: int = 0
    min_cycles: int = 150
    max_cycles: int = 300
    min_test_cycles: int = 30

    def __post_init__(self):
        if self.subspace_dim < 1:
            raise ValidationError("subspace_dim must be >= 1")
        if self.subspace_dim >= N_SENSORS:
            raise ValidationError("subspace_dim must be < number of sensor features")
        if self.n_regimes < 1:
            raise ValidationError("n_regimes must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError("noise_std must be finite and >= 0")
        if not math.isfinite(self.drift_rate):
            raise ValidationError("drift_rate must be finite")
        if not 0.0 <= self.drift_onset_fraction <= 1.0:
            raise ValidationError("drift_onset_fraction must be in [0, 1]")
        if self.n_units < 1:
            raise ValidationError("n_units must be >= 1")
        if self.min_cycles < 2:
            # a one-cycle unit leaves its test copy no cycle to keep
            raise ValidationError("min_cycles must be >= 2")
        if self.min_cycles > self.max_cycles:
            raise ValidationError("min_cycles must be <= max_cycles")
        if self.min_test_cycles < 1:
            raise ValidationError("min_test_cycles must be >= 1")


@dataclass(frozen=True)
class RegimeGround:
    """True generating parameters of one regime (for oracle tests)."""

    settings: np.ndarray  # (n_settings,)
    center: np.ndarray  # (n_sensors,)
    basis: np.ndarray  # (n_sensors, d), orthonormal
    spreads: np.ndarray  # (d,)
    drift_dir: np.ndarray  # (n_sensors,), unit norm, orthogonal to basis


def _random_orthonormal(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return q


def _make_regimes(cfg: SynthConfig, rng: np.random.Generator) -> list[RegimeGround]:
    regimes = []
    for k in range(cfg.n_regimes):
        settings = np.zeros(N_SETTINGS) if cfg.n_regimes == 1 else rng.uniform(
            0.0, 100.0, N_SETTINGS
        )
        center = rng.uniform(-2.0, 2.0, N_SENSORS)
        basis = _random_orthonormal(rng, N_SENSORS, cfg.subspace_dim)
        spreads = rng.uniform(0.5, 2.0, cfg.subspace_dim)
        raw = rng.standard_normal(N_SENSORS)
        drift = raw - basis @ (basis.T @ raw)
        drift /= np.linalg.norm(drift)
        regimes.append(RegimeGround(settings, center, basis, spreads, drift))
    return regimes


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[TrajectorySet, TrajectorySet, list[int], list[RegimeGround]]:
    """Generate (train fleet, truncated test fleet, true RULs, ground truth).

    Train units run to failure; each test unit is cut at random before its
    failure cycle, and the withheld tail length is its true RUL. Row t of a
    unit of L cycles drifts by drift_rate * max(0, t - int(fraction * L)).

    One stream, `default_rng(cfg.seed)`, draws in this order: the regimes
    (`_make_regimes`); the lengths of the n_units train units, then of the
    n_units test units; every test unit's kept cycles; then, for all rows of
    both fleets at once (train rows first, in unit order, and only the kept
    rows of the test units), the regime labels (none when n_regimes is 1),
    the in-subspace states and the noise. A fixed seed gives a fixed fleet.
    """
    rng = np.random.default_rng(cfg.seed)
    regimes = _make_regimes(cfg, rng)
    lengths = rng.integers(cfg.min_cycles, cfg.max_cycles + 1, size=2 * cfg.n_units)
    test_lengths = lengths[cfg.n_units:]
    keep = rng.integers(np.minimum(cfg.min_test_cycles, test_lengths - 1), test_lengths)
    drawn = np.r_[lengths[: cfg.n_units], keep]  # rows drawn per unit

    n_rows = int(drawn.sum())
    labels = (rng.integers(cfg.n_regimes, size=n_rows) if cfg.n_regimes > 1
              else np.zeros(n_rows, dtype=int))
    z = rng.standard_normal((n_rows, cfg.subspace_dim))
    features = np.empty((n_rows, N_SETTINGS + N_SENSORS))
    features[:, N_SETTINGS:] = rng.standard_normal((n_rows, N_SENSORS)) * cfg.noise_std
    starts = np.repeat(np.cumsum(drawn) - drawn, drawn)
    onsets = np.repeat((cfg.drift_onset_fraction * lengths).astype(int), drawn)
    wear = cfg.drift_rate * np.maximum(0, np.arange(1, n_rows + 1) - starts - onsets)
    for k, reg in enumerate(regimes):
        rows = labels == k
        features[rows, :N_SETTINGS] = reg.settings
        features[rows, N_SETTINGS:] += (
            reg.center + (z[rows] * np.sqrt(reg.spreads)) @ reg.basis.T
            + wear[rows, None] * reg.drift_dir
        )

    units = list(range(1, cfg.n_units + 1))
    train_bounds = np.r_[0, np.cumsum(lengths[: cfg.n_units])].tolist()
    test_bounds = np.r_[0, np.cumsum(keep)].tolist()
    n_train = train_bounds[-1]
    return (
        TrajectorySet(features[:n_train], units, train_bounds),
        TrajectorySet(features[n_train:], units, test_bounds),
        (test_lengths - keep).tolist(),
        regimes,
    )
