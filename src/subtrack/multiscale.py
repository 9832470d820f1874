"""K-model tracking over operating regimes.

The operational-setting space is partitioned into K clusters; each cluster
owns a subspace model. A sample is routed to the minimum-distance model. A
single-regime fleet is the K=1 case. Training fits each model by batch PCA;
`track` streams rows through the same fit, each row updating only the model
it is routed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import dataset
from .errors import NumericalError, ValidationError
from .subspace import SubspaceModel, mahalanobis_rows, update


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


def cluster_regimes(settings: np.ndarray, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """k-means over operational-setting vectors, seeded by farthest points.

    Returns the (K, n_settings) centroids and each row's `nearest_centroid`
    label. The first row is the first seed, each later one the row farthest
    from those chosen (Gonzalez, TCS 1985): no draw is made. Each cluster
    emptied in Lloyd's loop takes a row of its own, farthest from its
    centroid first. K=1 is answered in closed form: the settings mean is
    Lloyd's fixed point.
    Raises ValidationError when fewer than K rows lie apart (each other row
    repeats a seed or lies so near one that its squared distance underflows
    to 0), or when a regime ends holding no row; NumericalError as
    `_nearest_finite` does, or when a cluster's mean overflows.
    """
    points = np.asarray(settings, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValidationError("settings must be a non-empty 2-d array")
    if n_clusters == 1:
        return _mean(points)[None], np.zeros(len(points), dtype=np.intp)

    centroids = [points[0]]
    for _ in range(1, n_clusters):
        with np.errstate(over="ignore"):  # an infinite distance marks the farthest row
            d2 = _nearest(points, centroids)[1]
        far = np.argmax(d2)
        if not d2[far] > 0:
            raise ValidationError(
                f"{len(centroids)} settings vectors apart for {n_clusters} clusters: "
                "the others repeat them or lie too close to tell apart"
            )
        centroids.append(points[far])
    centroids = np.array(centroids)

    for _ in range(300):
        labels, d2 = _nearest_finite(points, centroids)
        new_centroids, empty = centroids.copy(), []
        for k in range(n_clusters):
            members = points[labels == k]
            if len(members) == 0:
                empty.append(k)
            else:
                new_centroids[k] = _mean(members)
        if empty:  # each its own row, farthest first, of the rows off their centroid
            far = np.argsort(-d2, kind="stable")[: len(empty)]
            for k, i in zip(empty, far[d2[far] > 0]):
                new_centroids[k] = points[i]
        if np.allclose(new_centroids, centroids, atol=0, rtol=0):
            break  # converged: labelled by the final centroids
        centroids = new_centroids
    else:
        labels = nearest_centroid(centroids, points)
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
    """Each row's nearest centroid index (ties -> lowest) and squared distance
    to it, `dataset.ROW_BLOCK` rows at a time: no (K, rows) table of the whole fleet."""
    labels, d2 = np.empty(len(points), dtype=np.intp), np.empty(len(points))
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


def assign_rows(mm: MultiModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the minimum-distance model for each row of a (n, D) matrix and
    that distance; ties -> lowest index."""
    dists = np.array([mahalanobis_rows(m, rows) for m in mm.models])
    labels = np.argmin(dists, axis=0)
    return labels, dists[labels, np.arange(rows.shape[0])]


def track(mm: MultiModel, rows: np.ndarray) -> MultiModel:
    """One pass over a (n, D) stream: each row updates only its
    minimum-distance model (ties -> lowest index), routed against the models
    as they stand when it arrives. The other models stay untouched."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != mm.models[0].dim:
        raise ValidationError(f"expected rows of dimension {mm.models[0].dim}")
    for row in rows:
        k = assign_rows(mm, row[None])[0][0]
        models = list(mm.models)
        models[k] = update(models[k], row)
        mm = MultiModel(models=models, centroids=mm.centroids)
    return mm
