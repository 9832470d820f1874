"""Single-subspace model and its online tracker.

The model is an affine subspace {basis, center, spreads, delta}: orthonormal
basis columns span the healthy subspace, center is the input-space mean,
spreads are the per-axis variances along the basis, and delta weights the
in-subspace quadratic form against the off-subspace residual energy in the
approximate Mahalanobis distance

    dist(x) = delta * sum_i (b_i . (x - c))^2 / spread_i + ||r||^2,

where r is the projection residual (x - c) minus its in-subspace part. The
complement basis is never materialized; the residual form is algebraically
identical and costs O(D*d) per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError

SPREAD_FLOOR = 1e-8
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceModel:
    basis: np.ndarray  # (D, d), orthonormal columns
    center: np.ndarray  # (D,)
    spreads: np.ndarray  # (d,), each >= SPREAD_FLOOR
    delta: float

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
        if not self.delta > 0:
            raise ValidationError("delta must be positive")
        for arr in (self.basis, self.center, self.spreads):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("non-finite model parameter")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the online tracker, a library API that acceptance
    criterion 3 gates; training fits init_subspace alone.

    alpha is the forgetting factor of the exponential-moving-average updates
    of center and spreads; eta the basis gradient step size.
    """

    alpha: float = 0.87
    eta: float = 0.01
    max_epochs: int = 100
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.eta < 0:
            raise ValidationError("eta must be >= 0")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if not self.rel_tol > 0:
            raise ValidationError("rel_tol must be positive")


def _fix_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[idx, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    return q * signs


def orthonormalize(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with the deterministic sign convention."""
    q = np.array(m, dtype=float, copy=True)
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        nrm = np.linalg.norm(q[:, j])
        if nrm < 1e-12:
            raise NumericalError(f"degenerate basis: column {j} collapsed")
        q[:, j] /= nrm
    return _fix_column_signs(q)


def init_subspace(window: np.ndarray, subspace_dim: int, delta: float = 0.01) -> SubspaceModel:
    """Batch-initialize from a window of healthy rows.

    Center is the column mean; the basis holds the top eigenvectors of the
    sample covariance and spreads the matching eigenvalues (floored, so rank
    deficiency never fails).
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise ValidationError("window must be a 2-d array of rows")
    n, dim = window.shape
    if n <= subspace_dim:
        raise ValidationError(
            f"need more than {subspace_dim} rows to initialize, got {n}"
        )
    if subspace_dim >= dim:
        raise ValidationError("subspace dimension must be < ambient dimension")
    if not delta > 0:
        raise ValidationError("delta must be positive")

    center = window.mean(axis=0)
    centered = window - center
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:subspace_dim]
    # C order like a basis read back by persist, so both round the same
    basis = np.ascontiguousarray(_fix_column_signs(eigvecs[:, order]))
    spreads = np.maximum(eigvals[order], SPREAD_FLOOR)
    model = SubspaceModel(basis=basis, center=center, spreads=spreads, delta=delta)
    model.validate()
    return model


def _check_vector(model: SubspaceModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValidationError(
            f"expected vector of dimension {model.dim}, got shape {x.shape}"
        )
    return x


def mahalanobis(model: SubspaceModel, x: np.ndarray) -> float:
    """Approximate Mahalanobis distance of x from the tracked subspace."""
    x = _check_vector(model, x)
    diff = x - model.center
    coords = model.basis.T @ diff
    residual = diff - model.basis @ coords
    return float(
        model.delta * np.sum(coords**2 / model.spreads) + residual @ residual
    )


def mahalanobis_rows(model: SubspaceModel, rows: np.ndarray) -> np.ndarray:
    """Vectorized distance over a (n, D) matrix of rows."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValidationError(f"expected rows of dimension {model.dim}")
    diff = rows - model.center
    coords = diff @ model.basis
    residual = diff - coords @ model.basis.T
    return model.delta * np.sum(coords**2 / model.spreads, axis=1) + np.sum(
        residual**2, axis=1
    )


def update(model: SubspaceModel, x: np.ndarray, cfg: TrainConfig) -> SubspaceModel:
    """One stochastic update step; returns a new model.

    Center and spreads follow exponential moving averages with forgetting
    factor alpha; the basis takes a rank-one residual-outer-product step and
    is re-orthonormalized.
    """
    x = _check_vector(model, x)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite input sample")

    a = cfg.alpha
    center = a * model.center + (1.0 - a) * x
    diff = x - center
    coords = model.basis.T @ diff
    residual = diff - model.basis @ coords

    step = cfg.eta * np.linalg.norm(residual) * np.linalg.norm(coords)
    if step == 0.0:
        basis = model.basis
    else:
        basis = orthonormalize(model.basis + cfg.eta * np.outer(residual, coords))

    spreads = np.maximum(a * model.spreads + (1.0 - a) * coords**2, SPREAD_FLOOR)
    return replace(model, basis=basis, center=center, spreads=spreads)
