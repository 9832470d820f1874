"""Synthetic fleets whose healthy rows lie on a known affine subspace, and
the CMAPSS-format writer they go to disk through.

Only `synth`, the tests and `scripts/run_synthetic_experiment.py` import
this module. It is the one module that draws from `numpy.random`, an
import the other commands never pay for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .dataset import N_SENSORS, N_SETTINGS, TrajectorySet
from .errors import ValidationError


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


def save_cmapss(tset: TrajectorySet, path: str | Path) -> None:
    """Write a TrajectorySet back to 26-column text, each unit's rows `unit
    cycle value ...`, cycles 1..L, separated by spaces; values round-trip
    exactly through `dataset.load_cmapss`. Each column of a unit is one map
    of float.__repr__ and str.join joins the rows: no Python code runs per
    row."""
    cycles = list(map(str, range(1, max(np.diff(tset.bounds)) + 1)))
    with open(path, "w") as fh:
        for unit, rows in zip(tset.unit_ids, tset):
            values = [map(float.__repr__, a.tolist()) for a in rows.T]
            lines = zip(repeat(str(unit)), cycles, *values)  # ends with the columns
            fh.write("\n".join(map(" ".join, lines)) + "\n")
