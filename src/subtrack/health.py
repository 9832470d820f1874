"""Health-index curve generation.

Raw subspace distances are smoothed, scaled into [0, 1] against fleet-level
healthy/failure reference levels, and mapped to a health index

    sigma = 1 - sqrt(scaled_distance),

so 1 means perfect health and 0 failure. A fleet's curves are one unit table,
a `dataset.TrajectorySet` of the CURVE_COLUMNS in the curve CSV's order. A
least-squares refinement (the "-LR" variant) maps the normalized, tracked
row, all D columns, to health-index values, one affine fit per model label:
a linear regression of the sensor readings, as in Wang et al. (PHM 2008).

Every row carries two labels. Its regime label, from the settings
clustering, picks its normalizer table and the healthy-window fit. Its
model label, from minimum-distance routing in `multiscale.assign_rows`, sets
its distance and its regressor row. They need not agree: on an FD004-sized
fleet (K=6) they differed on 16% of the training rows and 4% of the test rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

RIDGE_JITTER = 1e-10

CURVE_COLUMNS = ("raw_dist", "scaled_dist", "sigma")
RAW_DIST, SCALED_DIST, SIGMA = range(len(CURVE_COLUMNS))


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


def smooth(series: np.ndarray, factor: float) -> np.ndarray:
    """Exponential moving average along the last axis; factor=1 is the
    identity. The filter is causal, so the rows of a zero-padded 2-d stack
    smooth as each curve alone would, bit for bit."""
    if not 0.0 < factor <= 1.0:
        raise ValidationError("smoothing factor must be in (0, 1]")
    series = np.asarray(series, dtype=float)
    out = np.empty_like(series)
    x, y = np.moveaxis(series, -1, 0), np.moveaxis(out, -1, 0)  # time first
    if len(x) == 0:
        return out
    y[0] = x[0]
    for i in range(1, len(x)):
        y[i] = factor * x[i] + (1.0 - factor) * y[i - 1]
    return out


def pad_units(values: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The zero-padded (units, longest unit) stack of a series over a fleet's
    rows: row i holds values[bounds[i]:bounds[i + 1]]."""
    padded = np.zeros((len(bounds) - 1, max(np.diff(bounds), default=0)))
    for row, a, b in zip(padded, bounds, bounds[1:]):
        row[: b - a] = values[a:b]
    return padded


def smooth_units(values: np.ndarray, bounds: list[int], factor: float, out=None) -> np.ndarray:
    """A series over a fleet's rows, smoothed within each unit by one `smooth`
    call on its `pad_units` stack, into out when given (out may be values)."""
    padded = pad_units(values, bounds)
    inside = np.arange(padded.shape[1]) < np.diff(bounds)[:, None]  # each unit's cycles
    return np.compress(inside.ravel(), smooth(padded, factor), out=out)


def _median(values: list[float]) -> float:
    """np.median of a list of floats, bit for bit (NaN if any value is, never
    -0.0), without the numpy.ma import of its NaN check (~17 ms, 1.2 MB RSS)."""
    if any(v != v for v in values):
        return float("nan")
    s, mid = sorted(values), len(values) // 2
    return (s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2) + 0.0


def fit_scaler(
    raw: np.ndarray, smoothed: np.ndarray, bounds: list[int], healthy_cycles: int
) -> DistanceScaler:
    """Fleet-level reference distances from the raw distances of a
    run-to-failure fleet's rows and the same distances smoothed within each
    unit; unit i holds rows bounds[i]:bounds[i + 1].

    Floor: median over units of the mean raw distance in the healthy window.
    Ceiling: median over units of the smoothed distance at the final cycle.
    """
    if len(bounds) < 2:
        raise ValidationError("no training series")
    with np.errstate(over="ignore"):  # a sum of huge distances; raises below
        floors = [float(np.mean(raw[a:b][:healthy_cycles])) for a, b in zip(bounds, bounds[1:])]
    ceilings = [float(smoothed[b - 1]) for b in bounds[1:]]
    floor, ceiling = _median(floors), _median(ceilings)
    if not np.isfinite(floor):
        raise NumericalError("healthy-level distance overflows")
    if ceiling <= floor:
        raise ValidationError(
            f"degenerate fleet: failure-level distance {ceiling} does not "
            f"exceed healthy level {floor}"
        )
    return DistanceScaler(floor=floor, ceiling=ceiling)


def scale(scaler: DistanceScaler, raw: np.ndarray) -> np.ndarray:
    """Map raw distances into [0, 1], clamping out-of-range values."""
    raw = np.asarray(raw, dtype=float)
    return np.clip((raw - scaler.floor) / (scaler.ceiling - scaler.floor), 0.0, 1.0)


def to_health_index(scaled: np.ndarray) -> np.ndarray:
    """sigma = 1 - sqrt(scaled distance); requires input already in [0, 1]."""
    scaled = np.asarray(scaled, dtype=float)
    if np.any(scaled < 0) or np.any(scaled > 1):
        raise ValidationError("scaled distances must lie in [0, 1]")
    return 1.0 - np.sqrt(scaled)


def fit_hi_regression(blocks, n_regimes: int) -> np.ndarray:
    """Ordinary least squares (normal equations with a tiny ridge jitter)
    from rows to health-index targets, one affine fit per label in
    range(n_regimes): the (n_regimes, D+1) weights, intercept last.
    `blocks` is an iterable of (rows, targets, labels) arrays; each label's
    sums are added up block by block and solved once, so no block is kept.
    A label with fewer rows than coefficients raises."""
    gram = cross = None  # per label: [[x.T @ x, sum x], [sum x, n]] and [x.T @ y, sum y]
    for rows, targets, labels in blocks:
        if len(rows) != len(targets) or np.any(targets < 0) or np.any(targets > 1):
            raise ValidationError("need one target in [0, 1] per row")
        if gram is None:
            n_coef = rows.shape[1] + 1
            gram, cross = np.zeros((n_regimes, n_coef, n_coef)), np.zeros((n_regimes, n_coef))
        for r in range(n_regimes):
            sel = labels == r
            x, y = rows[sel], targets[sel]
            gram[r, :-1, :-1] += x.T @ x
            gram[r, -1] += np.append(x.sum(axis=0), len(x))
            cross[r] += np.append(x.T @ y, y.sum())
    if gram is None:
        raise ValidationError("no rows to regress")
    gram[:, :-1, -1] = gram[:, -1, :-1]  # the upper sum x, mirrored from the lower
    for r, count in enumerate(gram[:, -1, -1]):
        if count < n_coef:
            raise ValidationError(f"regime {r}: {int(count)} samples for {n_coef} coefficients")
    weights = np.linalg.solve(gram + RIDGE_JITTER * np.eye(n_coef), cross[..., None])
    return weights[..., 0]


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
