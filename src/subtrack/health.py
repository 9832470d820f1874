"""Health-index curve generation.

Raw subspace distances are smoothed, scaled into [0, 1] against fleet-level
healthy/failure reference levels, and mapped to a health index

    sigma = 1 - sqrt(scaled_distance),

so 1 means perfect health and 0 failure. A least-squares refinement (the
"-LR" variant) maps the normalized, tracked row, all D columns, to
health-index values, one affine fit per model label: a linear regression of
the sensor readings, as in Wang et al. (PHM 2008).

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


@dataclass(frozen=True)
class HiCurve:
    """Per-unit health-index series with the distances it was derived from."""

    unit_id: int
    sigma: np.ndarray
    raw_dist: np.ndarray
    scaled_dist: np.ndarray

    def __post_init__(self):
        if not len(self.sigma) == len(self.raw_dist) == len(self.scaled_dist):
            raise ValidationError("curve series must share length")

    def __len__(self) -> int:
        return len(self.sigma)


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


@dataclass(frozen=True)
class HiRegressor:
    """Affine least-squares map from the normalized, tracked row to the
    health index.

    weights has shape (K, D+1): intercept last, one row per model label.
    """

    weights: np.ndarray


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


def smooth_each(series: list[np.ndarray], factor: float) -> list[np.ndarray]:
    """`smooth` applied to each 1-d series, in one call on their zero-padded stack."""
    padded = np.zeros((len(series), max((len(s) for s in series), default=0)))
    for row, s in zip(padded, series):
        row[: len(s)] = s
    return [row[: len(s)] for row, s in zip(smooth(padded, factor), series)]


def _median(values: list[float]) -> float:
    """np.median of a list of floats, bit for bit (NaN if any value is, never
    -0.0), without the numpy.ma import of its NaN check (~17 ms, 1.2 MB RSS)."""
    if any(v != v for v in values):
        return float("nan")
    s, mid = sorted(values), len(values) // 2
    return (s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2) + 0.0


def fit_scaler(
    train_raw: list[np.ndarray], smoothed: list[np.ndarray], healthy_cycles: int
) -> DistanceScaler:
    """Fleet-level reference distances from run-to-failure raw series and
    the same series smoothed.

    Floor: median over units of the mean raw distance in the healthy window.
    Ceiling: median over units of the smoothed distance at the final cycle.
    """
    if not train_raw:
        raise ValidationError("no training series")
    with np.errstate(over="ignore"):  # a sum of huge distances; raises below
        floors = [float(np.mean(s[:healthy_cycles])) for s in train_raw]
    ceilings = [float(s[-1]) for s in smoothed]
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


def fit_hi_regression(blocks, n_regimes: int) -> HiRegressor:
    """Ordinary least squares (normal equations with a tiny ridge jitter)
    from rows to health-index targets, one affine fit per label in
    range(n_regimes). `blocks` is an iterable of (rows, targets, labels)
    arrays; each label's sums are added up block by block and solved once,
    so no block is kept. A label with fewer rows than coefficients raises."""
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
    return HiRegressor(weights=weights[..., 0])


def predict_hi(reg: HiRegressor, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Affine prediction with each row's label weights, clamped to [0, 1]:
    one product per label, so no per-row copy of the weights is made."""
    if rows.shape[1] != reg.weights.shape[1] - 1:
        raise ValidationError(
            f"regressor expects dimension {reg.weights.shape[1] - 1}, got {rows.shape[1]}"
        )
    labels, pred = np.asarray(labels), np.empty(len(rows))
    for r, w in enumerate(reg.weights):
        sel = labels == r
        pred[sel] = rows[sel] @ w[:-1] + w[-1]
    return np.clip(pred, 0.0, 1.0, out=pred)
