"""Training: every fit a model directory holds, and the online tracker.

`train` and `benchmark` import this module; `infer` never does. `fit_rows`
makes the fleet passes of `pipeline.infer_curves` over the training fleet,
so the library and the queries are one index. `update` is the online form
of the subspace fit (incremental PCA, Ross et al., IJCV 2008), O(D*d^2) per
row, and `track` streams rows through it; no command runs them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import dataset, health
from .config import RunConfig
from .dataset import N_SETTINGS, Normalizer, TrajectorySet
from .errors import NumericalError, PrognosticsError, ValidationError
from .health import RAW_DIST, SCALED_DIST, SIGMA, DistanceScaler
from .multiscale import MAX_REGIMES, MultiModel, _nearest, _nearest_finite, assign_rows
from .pipeline import TrainedPipeline, _analyze_fleet, _fleet_curves, _normalized_blocks, _settings
from .rul import Library
from .subspace import SubspaceModel

# features with sample std below this, relative to max(1, |mean|), are
# treated as constant and masked: a column holding one value gets a std of
# rounding size, which grows with the value
CONSTANT_STD = 1e-12
REGIME_GAP = 5.0  # the least ratio of neighbouring seed radii that marks the count
SPREAD_FLOOR = 1e-8
FORGETTING = 0.87  # weight of the old statistics per update: a memory of ~8 rows
SPECTRUM_FLOOR = 1e-10  # eigenvalues at most this fraction of the largest: a null space
DOMINANT_GAP = 3.0  # the least ratio of neighbouring eigenvalues that marks the edge
RIDGE_JITTER = 1e-10
HEALTHY_CYCLES = 20  # each unit's first cycles: the healthy window of fit_rows and the scaler


@contextmanager
def stage(name: str):
    """Tag pipeline errors with the stage they came from. A numpy
    LinAlgError (a singular or non-converging decomposition) becomes a
    NumericalError, so it exits 3 instead of ending in a traceback."""
    try:
        yield
    except PrognosticsError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc


# ---------------------------------------------------------------------------
# normalization

def fit_normalizer(rows: np.ndarray, labels: np.ndarray, n_regimes: int) -> Normalizer:
    """Fit z-score statistics over a (rows, features) matrix, one table per
    regime in range(n_regimes); `labels` holds each row's regime. A regime
    with no rows gets an all-masked table, and so does a feature whose std
    is below CONSTANT_STD * max(1, |mean|). A mean or std that overflows (a
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
    taken `dataset.ROW_BLOCK` rows at a time."""
    sums, size = np.zeros((n_regimes, rows.shape[1])), dataset.ROW_BLOCK
    for a in range(0, len(rows), size):
        block, block_labels = rows[a : a + size], labels[a : a + size]
        for r in range(n_regimes):
            x = block[block_labels == r]  # a copy: the deviations are formed in place
            if center is not None:
                x -= center[r]
                x *= x
            sums[r] += x.sum(axis=0)
            del x  # freed before the next copy is made
    return sums


# ---------------------------------------------------------------------------
# regimes

def cluster_regimes(settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-means over operational-setting vectors, seeded by farthest points,
    at the K the seeding reads.

    Returns the (K, n_settings) centroids and each row's
    `multiscale.nearest_centroid` label. The first row is the first seed,
    each later one the row farthest from those chosen (Gonzalez, TCS 1985):
    no draw is made. Of up to MAX_REGIMES seeds, let r_j be the distance
    from the first j to the farthest row. When some r_j is 0, each row
    repeats a seed and K = j. Otherwise K is the k of the largest
    r_{k-1} / r_k if at least REGIME_GAP (`largest_gap`), else 1. The
    centroids are the means of the seeds' clusters, and the labels are by
    those means. K=1 is answered in closed form: the settings mean is
    Lloyd's fixed point.
    Raises ValidationError when a regime ends holding no row; NumericalError
    as `multiscale.nearest_centroid` does, or when a cluster's mean overflows.
    """
    points = np.asarray(settings, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValidationError("settings must be a non-empty 2-d array")

    seeds = [0]
    with np.errstate(over="ignore"):  # an infinite distance marks the farthest row
        d2 = _nearest(points, points[:1])[1]  # to the nearest seed, kept as seeds join
        radii = [d2.max()]
        while radii[-1] > 0 and len(seeds) < MAX_REGIMES:
            seeds.append(int(np.argmax(d2)))
            np.minimum(d2, _nearest(points, points[seeds[-1]][None])[1], out=d2)
            radii.append(d2.max())
    n_clusters = len(seeds) if radii[-1] == 0 else largest_gap(np.sqrt(radii), REGIME_GAP) + 1
    if n_clusters == 1:
        return _mean(points)[None], np.zeros(len(points), dtype=np.uint8)
    # each seed lies r_{K-1} >= REGIME_GAP r_K from the others and every row
    # within r_K of its own, so one Lloyd step ends Lloyd's loop: the labels
    # by the seeds' means are the labels by the seeds (exact arithmetic)
    labels = _nearest_finite(points, points[seeds[:n_clusters]])[0]  # each seed its own
    centroids = np.array([_mean(points[labels == k]) for k in range(n_clusters)])
    labels = _nearest_finite(points, centroids)[0]
    # two equal centroids tie to the lower index, leaving the higher one empty
    held = np.bincount(labels, minlength=n_clusters)
    if not held.all():
        raise ValidationError(
            f"regime {np.argmin(held)} holds no settings row at {n_clusters} clusters: its "
            "centroid is nearest no row, as when settings lie too close to tell apart"
        )
    return centroids, labels


def _mean(points: np.ndarray) -> np.ndarray:
    """The mean settings row; raises NumericalError when its sum overflows."""
    with np.errstate(over="ignore"):  # raises below
        mean = points.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NumericalError("the settings mean of a regime overflows")
    return mean


# ---------------------------------------------------------------------------
# subspaces

def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[idx, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    return q * signs


def spectrum(window: np.ndarray) -> tuple:
    """(column mean, eigenvalues, eigenvectors of the covariance) of n >= 2 rows."""
    center = window.mean(axis=0)
    centered = window - center
    return (center, *np.linalg.eigh(centered.T @ centered / (len(window) - 1)))


def _ranked(eigvals: np.ndarray) -> np.ndarray:
    """A spectrum's eigenvalues above SPECTRUM_FLOOR times the largest, in
    descending order: masked sensors add zeros, which are dropped."""
    lam = np.sort(eigvals)[::-1]
    return lam[lam > SPECTRUM_FLOOR * lam[0]]


def pick_dim(eigvals: np.ndarray) -> int:
    """The d of a healthy spectrum: of its `_ranked` eigenvalues, the i of the
    largest lambda_i / lambda_{i+1} if at least DOMINANT_GAP, else the count above
    the mean eigenvalue and at least 2 (Kaiser-Guttman, which overcounts: too
    large a d costs little); 1 at rank <= 1."""
    lam = _ranked(eigvals)
    if len(lam) < 2:
        return 1
    return largest_gap(lam, DOMINANT_GAP) or max(2, int(np.sum(lam > np.mean(eigvals))))


def noise_variance(eigvals: np.ndarray, subspace_dim: int) -> float:
    """The delta of a healthy spectrum read at subspace_dim: the mean of its
    `_ranked` eigenvalues past the first subspace_dim, the noise variance of
    probabilistic PCA (Tipping & Bishop, JRSS-B 1999), floored at
    SPREAD_FLOOR; SPREAD_FLOOR when none is left."""
    lam = _ranked(eigvals)[subspace_dim:]
    return max(float(np.mean(lam)), SPREAD_FLOOR) if len(lam) else SPREAD_FLOOR


def largest_gap(values: np.ndarray, gap: float) -> int:
    """Of n >= 2 non-increasing positive values, the i (counted from 1) of the
    largest ratio values[i-1] / values[i] if at least gap, else 0. An inf / inf
    ratio reads as 1, no gap."""
    with np.errstate(invalid="ignore"):
        ratios = np.fmax(values[:-1] / values[1:], 1.0)
    i = int(np.argmax(ratios)) + 1
    return i if ratios[i - 1] >= gap else 0


def fit_spectrum(center, eigvals, eigvecs, subspace_dim: int) -> SubspaceModel:
    """The model of the top subspace_dim eigenpairs of a `spectrum`, its spreads
    floored at SPREAD_FLOOR, so a rank-deficient window fits too."""
    order = np.argsort(eigvals)[::-1][:subspace_dim]
    # C order like a basis read back by persist, so both round the same
    basis = np.ascontiguousarray(_fix_column_signs(eigvecs[:, order]))
    spreads = np.maximum(eigvals[order], SPREAD_FLOOR)
    model = SubspaceModel(basis=basis, center=center, spreads=spreads)
    model.validate()
    return model


def update(model: SubspaceModel, x: np.ndarray) -> SubspaceModel:
    """One exponentially weighted step of the fit; returns a new model.

    With a = FORGETTING: c' = c + (1-a)(x-c) and
    C' = a U diag(spreads) U^T + a(1-a)(x-c)(x-c)^T, whose top eigenpairs come
    from the thin SVD of the (D, d+1) factor [U sqrt(a spreads), sqrt(a(1-a)) (x-c)].
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValidationError(
            f"expected vector of dimension {model.dim}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite input sample")

    a = FORGETTING
    diff = x - model.center
    factor = np.column_stack(
        [model.basis * np.sqrt(a * model.spreads), np.sqrt(a * (1.0 - a)) * diff]
    )
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    center = model.center + (1.0 - a) * diff
    return fit_spectrum(center, s**2, u, model.subspace_dim)


def track(mm: MultiModel, rows: np.ndarray) -> MultiModel:
    """One pass over a (n, D) stream: each row updates only its
    minimum-distance model at mm.delta (ties -> lowest index), routed against
    the models as they stand when it arrives. The other models and delta stay
    untouched."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != mm.models[0].dim:
        raise ValidationError(f"expected rows of dimension {mm.models[0].dim}")
    for row in rows:
        k = assign_rows(mm, row[None])[0][0]
        models = list(mm.models)
        models[k] = update(models[k], row)
        mm = MultiModel(models=models, centroids=mm.centroids, delta=mm.delta)
    return mm


# ---------------------------------------------------------------------------
# health index

def _median(values: list[float]) -> float:
    """np.median of a list of floats, bit for bit (NaN if any value is),
    without the numpy.ma import of its NaN check (~17 ms, 1.2 MB RSS). Like
    np.mean of the middle values, the sum starts at +0.0 and is divided after."""
    if any(v != v for v in values):
        return float("nan")
    s, mid = sorted(values), len(values) // 2
    return 0.0 + s[mid] if len(s) % 2 else (0.0 + s[mid - 1] + s[mid]) / 2


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


# ---------------------------------------------------------------------------
# library

def pad_units(values: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The zero-padded (units, longest unit) stack of a series over a fleet's
    rows: row i holds values[bounds[i]:bounds[i + 1]]."""
    padded = np.zeros((len(bounds) - 1, max(np.diff(bounds), default=0)))
    for row, a, b in zip(padded, bounds, bounds[1:]):
        row[: b - a] = values[a:b]
    return padded


def prepare_library(curves: TrajectorySet) -> Library:
    """The library of a curve table's units in any order, their sigma used
    as given. Raises NumericalError as `rul.Library.from_padded` does."""
    ids, lengths = np.array(curves.unit_ids), np.diff(curves.bounds)
    padded = pad_units(curves.matrix[:, SIGMA], curves.bounds)
    order = slice(None) if (ids[1:] > ids[:-1]).all() else np.argsort(ids)  # no copy if sorted
    return Library.from_padded(ids[order], lengths[order], padded[order])


# ---------------------------------------------------------------------------
# pipeline

def train_pipeline(
    train_set: TrajectorySet, cfg: RunConfig
) -> tuple[TrainedPipeline, TrajectorySet]:
    """Fit the training stage: regimes (and K) read from the settings, then on
    the sensors the normalizer, one batch-PCA subspace per regime at the d
    `pick_dim` reads from their mean healthy spectrum (a regime of at most d
    healthy rows raises ValidationError) and the delta `noise_variance` reads
    there, scaler and (in sst-lr mode) the regressor. Returns the pipeline
    and its library's curves; only reads the set.
    It is `fit_rows` then `fit_library`: a caller that holds the set only to
    train may drop it between the two."""
    return fit_library(*fit_rows(train_set, cfg))


def fit_rows(train_set: TrajectorySet, cfg: RunConfig) -> tuple[dict, TrajectorySet]:
    """Every pass of `train_pipeline` that reads the set's rows (the last is
    the distance pass in sst mode, the predict pass in sst-lr mode), then
    the curves they leave, written in place. Returns the TrainedPipeline
    fields but the library, and the fleet's curves; neither holds the set."""
    centroids, labels = cluster_regimes(_settings(train_set))
    sensors, bounds = train_set.matrix[:, N_SETTINGS:], train_set.bounds
    norm = fit_normalizer(sensors, labels, len(centroids))

    is_healthy = np.zeros(len(sensors), dtype=bool)  # each unit's first HEALTHY_CYCLES rows
    for a, b in zip(bounds, bounds[1:]):
        is_healthy[a : min(b, a + HEALTHY_CYCLES)] = True
    idx = np.flatnonzero(is_healthy)
    idx = idx[np.argsort(labels[idx], kind="stable")]  # by regime, in order within each
    healthy, healthy_labels = sensors[idx], labels[idx]  # each healthy row copied once
    norm.transform_inplace(healthy, healthy_labels)
    n_rows = np.bincount(healthy_labels, minlength=len(centroids))
    windows = np.split(healthy, np.cumsum(n_rows)[:-1])  # a view of each regime's rows
    spectra = [spectrum(w) for w in windows if len(w) > 1]
    # one d and one delta for every member, read from the regimes' mean
    # spectrum: eigh's eigenvalues ascend, so the mean is taken rank by rank.
    # The rows are z-scored per regime, so the spectra share a scale.
    mean_spectrum = np.mean([e for _, e, _ in spectra], axis=0) if spectra else np.zeros(1)
    d = pick_dim(mean_spectrum)
    for k, n in enumerate(n_rows):
        if n <= d:
            raise ValidationError(
                f"regime {k}: {n} healthy rows cannot initialize a {d}-dimensional subspace"
                + (f" (of {len(n_rows)} regimes read from the settings; an outlying settings "
                   "row reads as a regime of its own)" if len(n_rows) > 1 else "")
            )
    members = [fit_spectrum(*s, d) for s in spectra]
    del is_healthy, idx, healthy, healthy_labels, windows  # freed before the fleet passes
    model = MultiModel(members, centroids, noise_variance(mean_spectrum, d))

    def blocks():
        return _normalized_blocks(norm, train_set, labels)

    curves, reg = _analyze_fleet(model, blocks(), train_set)
    smoothed = curves[:, SCALED_DIST]
    scaler = fit_scaler(curves[:, RAW_DIST], smoothed, bounds, HEALTHY_CYCLES)
    regressor = None
    if cfg.mode == "sst-lr":  # each block's target: the sst index of its smoothed distance
        regressor = fit_hi_regression(
            ((x, health.to_health_index(health.scale(scaler, smoothed[blk])), reg[blk])
             for blk, x in blocks()),
            len(centroids),
        )
        for blk, x in blocks():
            curves[blk, SIGMA] = health.predict_hi(regressor, x, reg[blk])
    fitted = dict(config=cfg, normalizer=norm, model=model, scaler=scaler, regressor=regressor)
    return fitted, _fleet_curves(train_set, cfg, scaler, curves)


def fit_library(fitted: dict, curves: TrajectorySet) -> tuple[TrainedPipeline, TrajectorySet]:
    """The rest of `train_pipeline`, on what `fit_rows` returns: the pipeline,
    with the library prepared from the curves, and the curves."""
    return TrainedPipeline(**fitted, library=prepare_library(curves)), curves
