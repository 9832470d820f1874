"""K-model tracking over operating regimes.

The operational-setting space is partitioned into K clusters; each cluster
owns a subspace model. A sample is routed to the minimum-distance model. A
single-regime fleet is the K=1 case. Training fits each model by batch PCA;
`track`, which no command runs, streams rows through the online form of that
fit, each row updating only the model it is routed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import dataset
from .errors import NumericalError, ValidationError
from .subspace import SubspaceModel, largest_gap, mahalanobis_rows, update

MAX_REGIMES = 16  # the most seeds, so the most regimes, the settings are read for
REGIME_GAP = 5.0  # the least ratio of neighbouring seed radii that marks the count


@dataclass(frozen=True)
class MultiModel:
    models: list[SubspaceModel]
    centroids: np.ndarray  # (K, n_settings)

    @property
    def n_regimes(self) -> int:
        return len(self.models)

    def validate(self) -> None:
        if not self.models:
            raise ValidationError("at least one model required")
        if len(self.centroids) != len(self.models):
            raise ValidationError("one centroid per model required")
        for m in self.models:
            m.validate()
        if any(np.array_equal(a, b) for a, b in combinations(self.centroids, 2)):
            raise ValidationError("centroids must be pairwise distinct")


def cluster_regimes(settings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-means over operational-setting vectors, seeded by farthest points,
    at the K the seeding reads.

    Returns the (K, n_settings) centroids and each row's `nearest_centroid`
    label. The first row is the first seed, each later one the row farthest
    from those chosen (Gonzalez, TCS 1985): no draw is made. Of up to
    MAX_REGIMES seeds, let r_j be the distance from the first j to the
    farthest row. When some r_j is 0, each row repeats a seed and K = j.
    Otherwise K is the k of the largest r_{k-1} / r_k if at least REGIME_GAP
    (`subspace.largest_gap`), else 1. The centroids are the means of the
    seeds' clusters, and the labels are by those means. K=1 is answered in
    closed form: the settings mean is Lloyd's fixed point.
    Raises ValidationError when a regime ends holding no row; NumericalError
    as `_nearest_finite` does, or when a cluster's mean overflows.
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


def nearest_centroid(centroids: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """Label each settings row with its nearest centroid index. Raises
    NumericalError as `_nearest_finite` does."""
    return _nearest_finite(np.atleast_2d(np.asarray(settings, dtype=float)), centroids)[0]


def _nearest_finite(points: np.ndarray, centroids) -> tuple[np.ndarray, np.ndarray]:
    """`_nearest`, raising NumericalError when a row's squared distance to its
    nearest centroid overflows: every centroid is then equally far, and
    argmin would pick 0. An overflow in the distance to a farther centroid
    changes no label and is ignored."""
    with np.errstate(over="ignore"):  # an overflow raises below
        labels, d2 = _nearest(points, centroids)
    if not np.isfinite(d2).all():
        raise NumericalError("squared settings distances to the regime centroids overflow")
    return labels, d2


def _nearest(points: np.ndarray, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid index (ties -> lowest), one byte as K is
    at most MAX_REGIMES, and squared distance to it, `dataset.ROW_BLOCK` rows
    at a time: no (K, rows) table of the whole fleet."""
    labels, d2 = np.empty(len(points), dtype=np.uint8), np.empty(len(points))
    for a in range(0, len(points), dataset.ROW_BLOCK):
        blk = slice(a, a + dataset.ROW_BLOCK)
        dists = _sq_dists(points[blk], centroids)
        labels[blk] = np.argmin(dists, axis=0)
        d2[blk] = np.min(dists, axis=0)
    return labels, d2


def _sq_dists(points: np.ndarray, centroids) -> np.ndarray:
    """(K, n) squared Euclidean distances of the rows from each centroid, summed
    over a transposed copy: in column order, as np.sum sums fewer than 8, 4x as fast."""
    cols, out = np.ascontiguousarray(points.T), np.empty((len(centroids), len(points)))
    for c, row in zip(centroids, out):
        np.sum((cols - c[:, None]) ** 2, axis=0, out=row)
    return out


def assign_rows(mm: MultiModel, rows: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Index of the minimum-distance model for each row of a (n, D) matrix and
    that distance at delta (`subspace.mahalanobis_rows`); ties -> lowest index."""
    dists = np.array([mahalanobis_rows(m, rows, delta) for m in mm.models])
    labels = np.argmin(dists, axis=0)
    return labels, dists[labels, np.arange(rows.shape[0])]


def track(mm: MultiModel, rows: np.ndarray, delta: float) -> MultiModel:
    """One pass over a (n, D) stream: each row updates only its
    minimum-distance model at delta (ties -> lowest index), routed against the
    models as they stand when it arrives. The other models stay untouched."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != mm.models[0].dim:
        raise ValidationError(f"expected rows of dimension {mm.models[0].dim}")
    for row in rows:
        k = assign_rows(mm, row[None], delta)[0][0]
        models = list(mm.models)
        models[k] = update(models[k], row)
        mm = MultiModel(models=models, centroids=mm.centroids)
    return mm
