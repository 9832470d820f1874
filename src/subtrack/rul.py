"""Similarity-based RUL estimation by health-index curve matching.

A truncated test curve of length n is slid along every full training curve
of length L over the lags tau in [tau1, tau2]. Each (train unit, lag) pair
with full overlap (n + tau <= L) is a candidate: its RUL is L - n - tau and
its weight is exp(-d2 / beta), where d2 is the mean squared pointwise
difference of the overlap. The estimate is the similarity-weighted mean of
all candidate RULs.

The library is built once per trained model: prepare_library sorts the
smoothed training curves by unit id, zero-pads them into one
(n_train, max_len) array P and keeps the prefix sums of P**2. A model
directory stores P, the unit ids and the lengths, and Library.from_padded
rebuilds the prefix sums from them. estimate_rul then scores one test curve
s against every (unit, lag) pair through the identity

    d2 = (|s|^2 - 2 s.w + |w|^2) / n,   w = P[unit, tau : tau + n].

The cross terms s.w of all pairs are one matrix product: the library slab
P[:, tau1 : tau1 + m], m = n + n_lags - 1, times the (m, n_lags) Toeplitz
matrix whose column j holds s at rows j .. j + n - 1. The window energies
|w|^2 are differences of the prefix sums. The identity cancels, so d2 is
clipped at 0. Lags past max_len - n never have full overlap and are not
computed, so a huge tau2 costs nothing.

The identity rounds differently from the direct mean of squared
differences in the per-candidate scalar loop that tests/test_rul.py keeps
as the reference: estimates, similarities and their sums agree with it to
a relative 1e-9; the candidate set, their RULs and the underflow flag agree
exactly. Results are deterministic on a given machine and BLAS build, and
do not depend on library order, but are not bitwise equal across machines
or BLAS builds.

An estimate keeps the number of candidates, their similarity sum and
whether every similarity underflowed, not the candidates themselves. Full
overlap already implies L - n - tau >= 0, so no candidate RUL needs a clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@dataclass(frozen=True)
class RulEstimate:
    unit_id: int
    estimate: float
    sum_similarity: float
    n_candidates: int
    similarity_underflow: bool = False


@dataclass(frozen=True)
class Library:
    """Smoothed training curves prepared for matching, sorted by unit id.

    Built once at fit time (prepare_library) or from a model directory's
    stored arrays; both go through Library.from_padded.
    """

    unit_ids: np.ndarray  # (n_train,) strictly increasing
    lengths: np.ndarray  # (n_train,)
    padded: np.ndarray  # (n_train, max_len), zero past each curve's end
    energy: np.ndarray  # (n_train, max_len + 1), energy[:, t] = sum(padded[:, :t]**2)

    @classmethod
    def from_padded(
        cls, unit_ids: np.ndarray, lengths: np.ndarray, padded: np.ndarray
    ) -> Library:
        """The library of curves already sorted by unit id and zero-padded.

        Raises NumericalError naming the unit when a curve holds a NaN or inf
        anywhere, even outside every lag window.
        """
        finite = np.isfinite(padded).all(axis=1)
        if not finite.all():
            unit = unit_ids[int(np.argmin(finite))]
            raise NumericalError(
                f"training unit {unit}: non-finite value in its health-index curve"
            )
        # filled in place: no (n_train, max_len) temporary beside the result
        energy = np.zeros((len(padded), padded.shape[1] + 1))
        np.square(padded, out=energy[:, 1:])
        np.cumsum(energy[:, 1:], axis=1, out=energy[:, 1:])
        return cls(unit_ids=unit_ids, lengths=lengths, padded=padded, energy=energy)


def prepare_library(curves: list[HiCurve]) -> Library:
    """The library of curves in any order, their sigma used as given.

    Raises NumericalError as Library.from_padded does.
    """
    curves = sorted(curves, key=lambda c: c.unit_id)
    lengths = np.array([len(c) for c in curves], dtype=np.int64)
    padded = np.zeros((len(curves), lengths.max(initial=0)))
    for row, c in zip(padded, curves):
        row[: len(c)] = c.sigma
    return Library.from_padded(
        np.array([c.unit_id for c in curves], dtype=np.int64), lengths, padded
    )


def _candidates(
    test: HiCurve, library: Library, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the test curve against every (library unit, lag) pair.

    Returns (valid, ruls, sims): valid is the (n_train, n_lags) full-overlap
    mask over the library's units and the lags tau1, tau1 + 1, ...; ruls and
    sims hold the RUL and similarity of each valid pair in (unit, lag) order.
    Raises as estimate_rul does.
    """
    sig = np.asarray(test.sigma, dtype=float)
    n = len(sig)
    if not np.isfinite(sig).all():
        raise NumericalError(
            f"unit {test.unit_id}: non-finite value in its health-index curve"
        )
    tau1 = cfg.tau1
    tau2 = min(cfg.tau2, library.padded.shape[1] - n)
    if tau2 < tau1:  # also an empty library
        raise NoMatchError(
            f"unit {test.unit_id}: no training curve long enough for any lag"
        )
    taus = np.arange(tau1, tau2 + 1)
    n_lags = len(taus)

    shifted = np.zeros(n + 2 * (n_lags - 1))
    shifted[n_lags - 1 : n_lags - 1 + n] = sig
    toeplitz = sliding_window_view(shifted, n_lags)[:, ::-1]
    cross = library.padded[:, tau1 : tau1 + n + n_lags - 1] @ toeplitz
    energy = library.energy
    d2 = energy[:, tau1 + n : tau2 + n + 1] - energy[:, tau1 : tau2 + 1]
    d2 -= 2.0 * cross
    d2 += sig @ sig
    d2 /= n
    np.maximum(d2, 0.0, out=d2)

    valid = n + taus <= library.lengths[:, None]
    d2 = d2[valid]
    if not np.isfinite(d2).all():
        raise NumericalError(
            f"unit {test.unit_id}: non-finite curve distance (overflow)"
        )
    ruls = (library.lengths[:, None] - n - taus)[valid].astype(float)
    return valid, ruls, np.exp(-d2 / cfg.beta)


def estimate_rul(test: HiCurve, library: Library, cfg: MatchConfig) -> RulEstimate:
    """Similarity-weighted combination of candidate RULs over all library
    curves and lags in [tau1, tau2].

    Raises NoMatchError when no pair has full overlap and NumericalError when
    the test curve is not finite, or a distance overflows, which would
    otherwise pass for similarity underflow.
    """
    _, ruls, sims = _candidates(test, library, cfg)
    sum_s = float(np.sum(sims))
    if sum_s > 0.0:
        estimate = float(np.sum(sims * ruls)) / sum_s
        underflow = False
    else:
        # every similarity underflowed; fall back to the unweighted mean
        estimate = float(np.sum(ruls)) / len(ruls)
        underflow = True

    return RulEstimate(
        unit_id=test.unit_id,
        estimate=estimate,
        sum_similarity=sum_s,
        n_candidates=len(ruls),
        similarity_underflow=underflow,
    )
