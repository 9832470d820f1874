"""Similarity-based RUL estimation by health-index curve matching.

A truncated test curve of length n is slid along every full training curve
of length L over the lags tau in [tau1, tau2]. Each (train unit, lag) pair
with full overlap (n + tau <= L) is a candidate: its RUL is L - n - tau and
its weight is exp(-d2 / beta), where d2 is the mean squared pointwise
difference of the overlap. The estimate is the similarity-weighted mean of
all candidate RULs.

estimate_rul scores one test curve against the whole library with arrays.
The library, sorted by unit id, is zero-padded into one (n_train, width)
array. Each lag fills one column of an (n_train, n_lags) distance array with
a row-wise np.mean over the (n_train, n) window at that lag. That is the same
pairwise reduction np.mean does on one window, so every d2 equals the scalar
curve_distance bit for bit. Only one lag's windows exist at a time: a copy of
all windows at once would cost n_train * n_lags * n floats, twice.

Similarities use math.exp over a list, not np.exp: the SIMD np.exp (AVX-512
builds) differs from math.exp by one ulp on a few percent of inputs, and the
estimate would then depend on the machine. Sums use math.fsum, which is
exact, so the result does not depend on library order.

An estimate's candidates are one record array in (unit, lag) order with the
fields train_unit, tau, rul, similarity and clamped. clamped (a negative
candidate RUL set to 0) is never True: full overlap already implies
L - n - tau >= 0. The field is kept because trace tooling counts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoMatchError, NumericalError, ValidationError
from .health import HiCurve


@dataclass(frozen=True)
class MatchConfig:
    tau1: int = 1
    tau2: int = 40
    beta: float = 0.0235

    def __post_init__(self):
        if not 0 <= self.tau1 <= self.tau2:
            raise ValidationError("need 0 <= tau1 <= tau2")
        if not self.beta > 0:
            raise ValidationError("beta must be positive")


CANDIDATE_DTYPE = np.dtype(
    [
        ("train_unit", np.int64),
        ("tau", np.int64),
        ("rul", np.float64),
        ("similarity", np.float64),
        ("clamped", np.bool_),
    ]
)


@dataclass(frozen=True)
class RulEstimate:
    unit_id: int
    estimate: float
    candidates: np.recarray  # CANDIDATE_DTYPE, one row per (unit, lag)
    sum_similarity: float
    similarity_underflow: bool = False


def curve_distance(test: np.ndarray, train: np.ndarray, tau: int) -> float | None:
    """Mean squared pointwise difference with the test curve shifted by tau.

    Returns None when the training curve is too short for full overlap;
    the caller skips that candidate.
    """
    test = np.asarray(test, dtype=float)
    train = np.asarray(train, dtype=float)
    n = len(test)
    if n + tau > len(train):
        return None
    return float(np.mean((test - train[tau : tau + n]) ** 2))


def similarity(d2: float, beta: float) -> float:
    """exp(-d2 / beta); 1 at a perfect match, decaying with curve distance."""
    if d2 < 0:
        raise ValidationError("squared distance must be >= 0")
    if not beta > 0:
        raise ValidationError("beta must be positive")
    return math.exp(-d2 / beta)


def candidate_rul(train_len: int, test_len: int, tau: int) -> tuple[float, bool]:
    """Candidate RUL for one alignment; negative values clamp to 0 (flagged)."""
    raw = train_len - test_len - tau
    if raw < 0:
        return 0.0, True
    return float(raw), False


def estimate_rul(
    test: HiCurve, library: list[HiCurve], cfg: MatchConfig
) -> RulEstimate:
    """Similarity-weighted combination of candidate RULs over all library
    curves and lags in [tau1, tau2].

    Raises NoMatchError when no pair has full overlap and NumericalError when
    a candidate distance is not finite (NaN or inf in either curve), which
    would otherwise pass for similarity underflow.
    """
    if not library:
        raise NoMatchError(f"unit {test.unit_id}: empty training library")

    library = sorted(library, key=lambda c: c.unit_id)
    sig = np.asarray(test.sigma, dtype=float)
    n = len(sig)
    lengths = np.array([len(c) for c in library])
    taus = np.arange(cfg.tau1, cfg.tau2 + 1)

    padded = np.zeros((len(library), max(lengths.max(), n + cfg.tau2)))
    for row, c in zip(padded, library):
        row[: len(c)] = c.sigma
    d2 = np.empty((len(library), len(taus)))
    for j, tau in enumerate(taus.tolist()):
        d2[:, j] = np.mean((sig - padded[:, tau : tau + n]) ** 2, axis=1)

    valid = n + taus <= lengths[:, None]
    if not valid.any():
        raise NoMatchError(
            f"unit {test.unit_id}: no training curve long enough for any lag"
        )
    d2 = d2[valid]
    if not np.isfinite(d2).all():
        raise NumericalError(
            f"unit {test.unit_id}: non-finite curve distance "
            "(NaN or inf in a health-index curve)"
        )

    candidates = np.recarray(len(d2), dtype=CANDIDATE_DTYPE)
    units = np.array([c.unit_id for c in library])
    candidates.train_unit = np.broadcast_to(units[:, None], valid.shape)[valid]
    candidates.tau = np.broadcast_to(taus, valid.shape)[valid]
    candidates.rul = (lengths[:, None] - n - taus)[valid]
    sims = list(map(math.exp, (-d2 / cfg.beta).tolist()))
    candidates.similarity = sims
    candidates.clamped = False  # full overlap keeps every rul >= 0

    sum_s = math.fsum(sims)
    if sum_s > 0.0:
        estimate = math.fsum((candidates.similarity * candidates.rul).tolist()) / sum_s
        underflow = False
    else:
        # every similarity underflowed; fall back to the unweighted mean
        estimate = math.fsum(candidates.rul.tolist()) / len(candidates)
        underflow = True

    return RulEstimate(
        unit_id=test.unit_id,
        estimate=estimate,
        candidates=candidates,
        sum_similarity=sum_s,
        similarity_underflow=underflow,
    )
