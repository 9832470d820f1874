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
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS

# features with sample std below this are treated as constant and masked
CONSTANT_STD = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """One unit's time-ordered operational settings and sensor readings.

    Cycle indices are implicit: row i is cycle i+1.
    """

    unit_id: int
    settings: np.ndarray  # (L, n_settings)
    sensors: np.ndarray  # (L, n_sensors)

    def __post_init__(self):
        if self.settings.ndim != 2 or self.sensors.ndim != 2:
            raise ValidationError("settings and sensors must be 2-d arrays")
        if len(self.settings) != len(self.sensors):
            raise ValidationError(
                f"unit {self.unit_id}: settings/sensors length mismatch"
            )
        if len(self.settings) == 0:
            raise ValidationError(f"unit {self.unit_id}: empty trajectory")

    def __len__(self) -> int:
        return len(self.sensors)

    @property
    def features(self) -> np.ndarray:
        """Full feature matrix, settings columns first. Shape (L, D)."""
        return np.hstack([self.settings, self.sensors])


@dataclass(frozen=True)
class TrajectorySet:
    """A fleet of trajectories with distinct unit ids."""

    trajectories: list[Trajectory]

    def __post_init__(self):
        if not self.trajectories:
            raise ValidationError("empty trajectory set")
        ids = [t.unit_id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate unit ids in trajectory set")

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    @property
    def unit_ids(self) -> list[int]:
        return [t.unit_id for t in self.trajectories]


def load_cmapss(path: str | Path) -> TrajectorySet:
    """Parse a 26-column CMAPSS-format text file into a TrajectorySet.

    Raises DataFormatError with the offending line number on malformed rows
    and on non-finite values (nan, inf), ValidationError when a unit's cycle
    indices are not 1, 2, 3, ...

    The file is parsed with one numpy call. When that parse or a check on
    its result fails, the line parser reads the file again and decides: it
    raises the error, or returns what the file holds (a unit id written as
    1_0, say, which numpy does not parse).
    """
    path = Path(path)
    trajectories = _parse_cmapss_bulk(path)
    if trajectories is None:
        trajectories = _parse_cmapss_lines(path)
    return TrajectorySet(trajectories)


def _parse_cmapss_bulk(path: Path) -> list[Trajectory] | None:
    """The trajectories from one numpy parse, or None when the line parser
    must decide. Accepts only files the line parser accepts, with the same
    values: float tokens are correctly rounded in both."""
    with open(path) as fh:
        table = read_table(fh, ndmin=2)
    if table is None or table.shape[1] != N_COLUMNS:
        return None
    ids = table[:, :2]
    if not (np.abs(ids) < 2.0**62).all():  # also rejects nan
        return None
    ids = ids.astype(np.int64)  # truncates toward zero, as int() does
    blocks = unit_blocks(ids[:, 0], ids[:, 1])
    if blocks is None:
        return None
    order, bounds = blocks
    data = table[order, 2:]  # a new C-ordered array, as the line parser builds
    if not np.isfinite(data).all():
        return None
    return [
        Trajectory(
            unit_id=unit,
            settings=data[a:b, :N_SETTINGS],
            sensors=data[a:b, N_SETTINGS:],
        )
        for unit, a, b in bounds
    ]


def _parse_cmapss_lines(path: Path) -> list[Trajectory]:
    """Line-by-line parse; the reference for what load_cmapss accepts and
    for every message it raises."""
    rows_by_unit: dict[int, list[tuple[int, np.ndarray]]] = {}
    with open(path) as fh, _decoding(path):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
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
            rows_by_unit.setdefault(unit, []).append((cycle, values[2:]))

    if not rows_by_unit:
        raise DataFormatError(f"{path}: no data rows")

    trajectories = []
    for unit in sorted(rows_by_unit):
        rows = sorted(rows_by_unit[unit], key=lambda r: r[0])
        cycles = [c for c, _ in rows]
        if cycles != list(range(1, len(cycles) + 1)):
            raise ValidationError(
                f"{path}: unit {unit} has non-contiguous cycle indices"
            )
        data = np.array([v for _, v in rows])
        if not np.isfinite(data).all():
            with open(path) as fh:
                lineno = first_non_finite_line(fh)
            raise DataFormatError(f"{path}:{lineno}: non-finite value (nan or inf)")
        trajectories.append(
            Trajectory(
                unit_id=unit,
                settings=data[:, :N_SETTINGS],
                sensors=data[:, N_SETTINGS:],
            )
        )
    return trajectories


@contextmanager
def _decoding(path: Path):
    """Turn a UnicodeDecodeError while reading path into a DataFormatError
    naming the file (the decoder reads ahead, so no line is named)."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file ({exc})") from exc


def read_table(fh, **kwargs) -> np.ndarray | None:
    """np.loadtxt over the rest of an open text file, with no comment
    character; None when numpy rejects the text or warns (it warns on a file
    with no data rows). Callers then fall back to their line parser."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, comments=None, **kwargs)
    except (ValueError, Warning):
        return None


def unit_blocks(
    units: np.ndarray, cycles: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int, int]]] | None:
    """Group rows by unit: the row order that sorts by unit, then by cycle
    (a stable sort, like sorting each unit's rows by cycle), and the
    (unit, start, stop) of each unit's rows in that order, units ascending.
    None when some unit's cycles are not exactly 1, 2, ..., L."""
    order = np.lexsort((cycles, units))
    units, cycles = units[order], cycles[order]
    starts = np.flatnonzero(np.r_[True, units[1:] != units[:-1]])
    stops = np.r_[starts[1:], len(units)]
    expected = np.arange(len(units)) - np.repeat(starts, stops - starts) + 1
    if not np.array_equal(cycles, expected):
        return None
    return order, list(zip(units[starts].tolist(), starts.tolist(), stops.tolist()))


def first_non_finite_line(lines, sep: str | None = None, start: int = 1) -> int:
    """Number of the first non-blank line with a token that parses to nan or
    inf. Callers rescan with it only after a parsed array failed the
    finiteness check, so every token parses and such a line exists."""
    for lineno, line in enumerate(lines, start=start):
        if line.strip() and not all(math.isfinite(float(p)) for p in line.split(sep)):
            return lineno
    raise ValueError("no non-finite value found")


def save_cmapss(tset: TrajectorySet, path: str | Path) -> None:
    """Write a TrajectorySet back to 26-column text; values round-trip exactly."""
    path = Path(path)
    with open(path, "w") as fh:
        for traj in tset:
            feats = traj.features
            for i in range(len(traj)):
                vals = " ".join(repr(float(v)) for v in feats[i])
                fh.write(f"{traj.unit_id} {i + 1} {vals}\n")


def load_rul_targets(path: str | Path, n_units: int) -> list[int]:
    """Read one whole RUL >= 0 per line; must match the test fleet size exactly."""
    path = Path(path)
    targets = []
    with open(path) as fh, _decoding(path):
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
    row is transformed with the table of its regime label.

    Constant features (std below CONSTANT_STD) are masked: their output is 0,
    keeping the column count and indices aligned with the file format.
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
        """Z-score each row in place with the table of its regime label."""
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
    with no rows gets an all-masked table."""
    shape = (n_regimes, rows.shape[1])
    mean, std, mask = np.zeros(shape), np.ones(shape), np.zeros(shape, dtype=bool)
    for r in range(n_regimes):
        sub = rows if n_regimes == 1 else rows[labels == r]  # K=1: the matrix, no copy
        if len(sub) == 0:
            mask[r] = True
            continue
        mean[r], sd = sub.mean(axis=0), sub.std(axis=0)
        mask[r] = sd < CONSTANT_STD
        std[r] = np.where(mask[r], 1.0, sd)
    return Normalizer(mean=mean, std=std, mask=mask)


# ---------------------------------------------------------------------------
# synthetic fleets

@dataclass(frozen=True)
class SynthConfig:
    """Generator for fleets whose healthy rows lie on a known affine subspace.

    Healthy rows are c + B z + noise with z drawn from the per-axis spreads;
    after the onset cycle an off-subspace drift component grows linearly at
    drift_rate per cycle, which is exactly the quantity the residual term of
    the subspace distance should pick up.
    """

    n_units: int = 50
    n_test_units: int | None = None
    n_features: int = 24  # settings + sensors, CMAPSS layout when 24
    subspace_dim: int = 3
    n_regimes: int = 1
    noise_std: float = 0.01
    drift_onset_fraction: float = 0.5
    drift_rate: float = 0.02
    seed: int = 0
    min_cycles: int = 150
    max_cycles: int = 300
    min_test_cycles: int = 30

    def validate(self) -> None:
        if self.subspace_dim < 1:
            raise ValidationError("subspace_dim must be >= 1")
        if self.subspace_dim >= self.n_features - N_SETTINGS:
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
        if self.n_features <= N_SETTINGS:
            raise ValidationError(f"n_features must exceed {N_SETTINGS}")


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
    n_sensors = cfg.n_features - N_SETTINGS
    regimes = []
    for k in range(cfg.n_regimes):
        settings = np.zeros(N_SETTINGS) if cfg.n_regimes == 1 else rng.uniform(
            0.0, 100.0, N_SETTINGS
        )
        center = rng.uniform(-2.0, 2.0, n_sensors)
        basis = _random_orthonormal(rng, n_sensors, cfg.subspace_dim)
        spreads = rng.uniform(0.5, 2.0, cfg.subspace_dim)
        raw = rng.standard_normal(n_sensors)
        drift = raw - basis @ (basis.T @ raw)
        drift /= np.linalg.norm(drift)
        regimes.append(RegimeGround(settings, center, basis, spreads, drift))
    return regimes


def _sample_unit(
    cfg: SynthConfig,
    rng: np.random.Generator,
    regimes: list[RegimeGround],
    unit_id: int,
    length: int,
) -> Trajectory:
    onset = int(cfg.drift_onset_fraction * length)
    n_sensors = cfg.n_features - N_SETTINGS
    settings = np.empty((length, N_SETTINGS))
    sensors = np.empty((length, n_sensors))
    for i in range(length):
        t = i + 1
        k = int(rng.integers(cfg.n_regimes)) if cfg.n_regimes > 1 else 0
        reg = regimes[k]
        z = rng.standard_normal(cfg.subspace_dim) * np.sqrt(reg.spreads)
        eps = rng.standard_normal(n_sensors) * cfg.noise_std
        x = reg.center + reg.basis @ z + eps
        x = x + cfg.drift_rate * max(0, t - onset) * reg.drift_dir
        settings[i] = reg.settings
        sensors[i] = x
    return Trajectory(unit_id=unit_id, settings=settings, sensors=sensors)


def generate_synthetic(
    cfg: SynthConfig,
) -> tuple[TrajectorySet, TrajectorySet, list[int], list[RegimeGround]]:
    """Generate (train fleet, truncated test fleet, true RULs, ground truth).

    Deterministic for a fixed seed. Train units run to failure; test units are
    truncated uniformly at random before their failure cycle and the withheld
    tail length is recorded as the true RUL.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    regimes = _make_regimes(cfg, rng)

    train = []
    for u in range(1, cfg.n_units + 1):
        length = int(rng.integers(cfg.min_cycles, cfg.max_cycles + 1))
        train.append(_sample_unit(cfg, rng, regimes, u, length))

    n_test = cfg.n_test_units if cfg.n_test_units is not None else cfg.n_units
    test = []
    true_ruls = []
    for u in range(1, n_test + 1):
        length = int(rng.integers(cfg.min_cycles, cfg.max_cycles + 1))
        full = _sample_unit(cfg, rng, regimes, u, length)
        lo = min(cfg.min_test_cycles, length - 1)
        keep = int(rng.integers(lo, length))
        test.append(
            Trajectory(
                unit_id=u,
                settings=full.settings[:keep],
                sensors=full.sensors[:keep],
            )
        )
        true_ruls.append(length - keep)

    return (
        TrajectorySet(train),
        TrajectorySet(test),
        true_ruls,
        regimes,
    )
