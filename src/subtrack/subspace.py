"""Single-subspace model and its distance.

The model is an affine subspace {basis, center, spreads}: orthonormal basis
columns span the healthy subspace, center is the input-space mean and spreads
are the per-axis variances along the basis. The run config's delta weights the
in-subspace quadratic form against the off-subspace residual energy in the
approximate Mahalanobis distance

    dist(x) = delta * sum_i (b_i . (x - c))^2 / spread_i + ||r||^2,

where r is the projection residual (x - c) minus its in-subspace part. The
complement basis is never materialized; the residual form is algebraically
identical and costs O(D*d) per sample.

Training fits each model by batch PCA (`fit.fit_spectrum`), and `fit.update`
is the online form of that fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceModel:
    basis: np.ndarray  # (D, d), orthonormal columns
    center: np.ndarray  # (D,)
    spreads: np.ndarray  # (d,), each > 0

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]

    def validate(self) -> None:
        d, k = self.basis.shape
        if k >= d:
            raise ValidationError("subspace dimension must be < ambient dimension")
        if self.center.shape != (d,):
            raise ValidationError("center has wrong dimension")
        if self.spreads.shape != (k,):
            raise ValidationError("spreads has wrong dimension")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(k))) > ORTHONORMAL_TOL:
            raise ValidationError("basis columns are not orthonormal")
        if not np.all(self.spreads > 0):
            raise ValidationError("spreads must be positive")
        for arr in (self.basis, self.center, self.spreads):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("non-finite model parameter")


def mahalanobis_rows(model: SubspaceModel, rows: np.ndarray, delta: float) -> np.ndarray:
    """Approximate Mahalanobis distance of each row of a (n, D) matrix from
    the subspace, its in-subspace term weighted by delta."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValidationError(f"expected rows of dimension {model.dim}")
    residual = rows - model.center  # the centered rows, then in place their residual
    coords = residual @ model.basis
    residual -= coords @ model.basis.T
    return delta * np.sum(coords**2 / model.spreads, axis=1) + np.sum(
        np.square(residual, out=residual), axis=1
    )

