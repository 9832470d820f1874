"""Single-subspace model, its batch PCA fit and an online form of that fit.

The model is an affine subspace {basis, center, spreads}: orthonormal basis
columns span the healthy subspace, center is the input-space mean and spreads
are the per-axis variances along the basis. The run config's delta weights the
in-subspace quadratic form against the off-subspace residual energy in the
approximate Mahalanobis distance

    dist(x) = delta * sum_i (b_i . (x - c))^2 / spread_i + ||r||^2,

where r is the projection residual (x - c) minus its in-subspace part. The
complement basis is never materialized; the residual form is algebraically
identical and costs O(D*d) per sample.

`fit_spectrum` fits the top eigenpairs of a window's covariance (`spectrum`);
every command fits its members so. `update`, the online tracker, refits them
after one exponentially weighted step of the same statistics (incremental PCA,
Ross et al., IJCV 2008), O(D*d^2) per row; no command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

SPREAD_FLOOR = 1e-8
ORTHONORMAL_TOL = 1e-8
FORGETTING = 0.87  # weight of the old statistics per update: a memory of ~8 rows
SPECTRUM_FLOOR = 1e-10  # eigenvalues at most this fraction of the largest: a null space
DOMINANT_GAP = 3.0  # the least ratio of neighbouring eigenvalues that marks the edge


@dataclass(frozen=True)
class SubspaceModel:
    basis: np.ndarray  # (D, d), orthonormal columns
    center: np.ndarray  # (D,)
    spreads: np.ndarray  # (d,), each >= SPREAD_FLOOR

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


def pick_dim(eigvals: np.ndarray) -> int:
    """The d of a healthy spectrum: of the eigenvalues above SPECTRUM_FLOOR times the
    largest (masked sensors add zeros), the i of the largest lambda_i / lambda_{i+1}
    if at least DOMINANT_GAP, else the count above the mean eigenvalue and at least 2
    (Kaiser-Guttman, which overcounts: too large a d costs little); 1 at rank <= 1."""
    lam = np.sort(eigvals)[::-1]
    lam = lam[lam > SPECTRUM_FLOOR * lam[0]]
    if len(lam) < 2:
        return 1
    return largest_gap(lam, DOMINANT_GAP) or max(2, int(np.sum(lam > np.mean(eigvals))))


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
