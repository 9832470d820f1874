"""Health-index curve generation.

Raw subspace distances are smoothed, scaled into [0, 1] against fleet-level
healthy/failure reference levels (`fit.fit_scaler`), and mapped to a health
index

    sigma = 1 - sqrt(scaled_distance),

so 1 means perfect health and 0 failure. A fleet's curves are one unit table,
a `dataset.TrajectorySet` of the CURVE_COLUMNS, in the order of the last
three columns of a `persist.write_curves` export. A
least-squares refinement (the "-LR" variant) maps the normalized, tracked
row, its D = N_SENSORS sensor columns, to health-index values, one affine
fit per model label (`fit.fit_hi_regression`): a linear regression of the
sensor readings, as in Wang et al. (PHM 2008).

Every row carries two labels. Its regime label, from the settings
clustering, picks its normalizer table and the healthy-window fit; the
settings reach nothing else, at any number of regimes. Its
model label, from minimum-distance routing in `multiscale.assign_rows`, sets
its distance and its regressor row. They need not agree: on an FD004-sized
fleet (K=6) they differed on 16% of the training rows and 4% of the test rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CURVE_COLUMNS = ("raw_dist", "scaled_dist", "sigma")
RAW_DIST, SCALED_DIST, SIGMA = range(len(CURVE_COLUMNS))
SMOOTHING = 0.3  # the moving-average factor of a fleet's distances and its sst-lr index


@dataclass(frozen=True)
class DistanceScaler:
    """Affine map from raw distance to [0, 1]: floor -> 0, ceiling -> 1."""

    floor: float
    ceiling: float

    def __post_init__(self):
        if not (np.isfinite(self.ceiling) and self.ceiling > self.floor >= 0):
            raise ValidationError(
                f"need finite ceiling > floor >= 0, got floor={self.floor} "
                f"ceiling={self.ceiling}"
            )


def smooth_units(values: np.ndarray, bounds: list[int], factor: float, out=None) -> np.ndarray:
    """A series over a fleet's rows, smoothed within each unit by an
    exponential moving average, into out when given. Cycle i of every unit
    still running is one step over the fleet: it reads only input i and
    output i-1, so out may be values and no padded stack is built. Each
    output is the recurrence y[i] = factor * x[i] + (1 - factor) * y[i - 1]
    in float64, and a unit's first output its first input. At factor=1 that
    is x[i] + 0.0 * y[i - 1]: each finite input as it is, but for a -0.0
    after a +0.0 or positive output, which comes back +0.0."""
    if not 0.0 < factor <= 1.0:
        raise ValidationError("smoothing factor must be in (0, 1]")
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values) if out is None else out
    starts, lengths = np.asarray(bounds[:-1], dtype=np.intp), np.diff(bounds)
    rows = starts[lengths > 0]
    out[rows] = values[rows]
    for i in range(1, lengths.max(initial=0)):
        rows = starts[lengths > i] + i  # the row at cycle i of each unit still running
        out[rows] = factor * values[rows] + (1.0 - factor) * out[rows - 1]
    return out


def scale(scaler: DistanceScaler, raw: np.ndarray, out=None) -> np.ndarray:
    """Map raw distances into [0, 1], clamping out-of-range values, into out
    when given (out may be raw)."""
    raw = np.asarray(raw, dtype=float)
    out = np.subtract(raw, scaler.floor, out=np.empty_like(raw) if out is None else out)
    out /= scaler.ceiling - scaler.floor
    return np.clip(out, 0.0, 1.0, out=out)


def to_health_index(scaled: np.ndarray, out=None) -> np.ndarray:
    """sigma = 1 - sqrt(scaled distance), into out when given (out may be
    scaled); requires input already in [0, 1]."""
    scaled = np.asarray(scaled, dtype=float)
    if np.any(scaled < 0) or np.any(scaled > 1):
        raise ValidationError("scaled distances must lie in [0, 1]")
    out = np.sqrt(scaled, out=np.empty_like(scaled) if out is None else out)
    return np.subtract(1.0, out, out=out)


def predict_hi(weights: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Affine prediction with the (K, D+1) weights row of each row's label,
    clamped to [0, 1]: one product per label, so no per-row copy of the
    weights is made."""
    if rows.shape[1] != weights.shape[1] - 1:
        raise ValidationError(
            f"regressor expects dimension {weights.shape[1] - 1}, got {rows.shape[1]}"
        )
    labels, pred = np.asarray(labels), np.empty(len(rows))
    for r, w in enumerate(weights):
        sel = labels == r
        pred[sel] = rows[sel] @ w[:-1] + w[-1]
    return np.clip(pred, 0.0, 1.0, out=pred)
