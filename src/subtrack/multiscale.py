"""K-model tracking over operating regimes.

The operational-setting space is partitioned into K clusters; each cluster
owns a subspace model. A sample is routed to the minimum-distance model. A
single-regime fleet is the K=1 case. Training reads K and the centroids
from the settings (`fit.cluster_regimes`), fits each model by batch PCA and
reads one in-subspace weight delta for all of them (`fit.noise_variance`):
routing compares distances across models, so they share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import dataset
from .errors import NumericalError, ValidationError
from .subspace import SubspaceModel, mahalanobis_rows

MAX_REGIMES = 16  # the most seeds, so the most regimes, the settings are read for


@dataclass(frozen=True)
class MultiModel:
    models: list[SubspaceModel]
    centroids: np.ndarray  # (K, n_settings)
    delta: float  # the in-subspace weight of every model's distance, > 0

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


def assign_rows(mm: MultiModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the minimum-distance model for each row of a (n, D) matrix and
    that distance at mm.delta (`subspace.mahalanobis_rows`); ties -> lowest index."""
    dists = np.array([mahalanobis_rows(m, rows, mm.delta) for m in mm.models])
    labels = np.argmin(dists, axis=0)
    return labels, dists[labels, np.arange(rows.shape[0])]

