"""Similarity-based RUL estimation by health-index curve matching.

A truncated test curve of length n is slid along every full training curve
of length L over the lags tau in [tau1, tau2]. Each (train unit, lag) pair
with full overlap (n + tau <= L) is a candidate: its RUL is L - n - tau and
its weight is exp(-d2 / b), where d2 is the mean squared pointwise
difference of the overlap and the bandwidth b is the test unit's smallest
candidate d2, floored at BANDWIDTH_FLOOR. The estimate is the weighted mean
of all candidate RULs, a Nadaraya-Watson estimator; the nearest candidate
weighs e^-1 (more when the floor binds), so the weights never all
underflow. tau1 and tau2 are read from the run's RunConfig, which checks
them.

Library and test curves must carry the same health index; matching uses
each sigma as given and smooths nothing. The library is built once per
trained model: prepare_library zero-pads the sigma column of the training
curve table into one (n_train, max_len) array P, its rows in unit id order,
with `health.pad_units`, and keeps the prefix sums of P**2. A model
directory stores P, the unit ids and the lengths, and Library.from_padded
rebuilds the prefix sums from them. estimate_rul then scores one test
unit's sigma s against every (unit, lag) pair through the identity

    d2 = (|s|^2 - 2 s.w + |w|^2) / n,   w = P[unit, tau : tau + n].

The cross terms s.w of all pairs are one matrix product: the library slab
P[:, tau1 : tau1 + m], m = n + n_lags - 1, times the (m, n_lags) Toeplitz
matrix whose column j holds s at rows j .. j + n - 1 (a read-only,
column-reversed sliding_window_view of s zero-padded). The window energies
|w|^2 are differences of the prefix sums. The identity cancels, so d2 is
clipped at 0. Lags past max_len - n never have full overlap and are not
computed, so a huge tau2 costs nothing.

The identity rounds differently from the direct mean of squared
differences in the per-candidate scalar loop that tests/test_rul.py keeps
as the reference. Its absolute rounding in d2, divided by b, bounds the
error of each weight, and that test derives its tolerances so; the
candidate set and their RULs agree exactly. Results are deterministic on a
given machine and BLAS build, and do not depend on library order, but are
not bitwise equal across machines or BLAS builds.

An estimate keeps the number of candidates and their weight sum, not the
candidates themselves. Full overlap already implies L - n - tau >= 0, so no
candidate RUL needs a clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .dataset import TrajectorySet
from .errors import NoMatchError, NumericalError
from .health import SIGMA, pad_units

# The bandwidth's floor. The identity clips d2 at 0, so a test curve equal to
# a library window has a smallest d2 of 0 (or of the identity's rounding,
# ~1e-14 on short curves); the floor keeps that window's weight near 1 and
# every farther candidate's near 0.
BANDWIDTH_FLOOR = 1e-12


@dataclass(frozen=True)
class RulEstimate:
    unit_id: int
    estimate: float
    sum_similarity: float
    n_candidates: int


@dataclass(frozen=True)
class Library:
    """Training curves prepared for matching, sorted by unit id.

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


def prepare_library(curves: TrajectorySet) -> Library:
    """The library of a curve table's units in any order, their sigma used
    as given. Raises NumericalError as Library.from_padded does."""
    ids, lengths = np.array(curves.unit_ids), np.diff(curves.bounds)
    padded = pad_units(curves.matrix[:, SIGMA], curves.bounds)
    order = slice(None) if (ids[1:] > ids[:-1]).all() else np.argsort(ids)  # no copy if sorted
    return Library.from_padded(ids[order], lengths[order], padded[order])


def _candidates(
    unit_id: int, sigma: np.ndarray, library: Library, cfg: RunConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score one test unit's sigma against every (library unit, lag) pair.

    Returns (valid, ruls, sims): valid is the (n_train, n_lags) full-overlap
    mask over the library's units and the lags tau1, tau1 + 1, ...; ruls and
    sims hold the RUL and weight of each valid pair in (unit, lag) order.
    Raises as estimate_rul does.
    """
    sig = np.ascontiguousarray(sigma, dtype=float)  # a strided sig @ sig rounds otherwise
    n = len(sig)
    if not np.isfinite(sig).all():
        raise NumericalError(f"unit {unit_id}: non-finite value in its health-index curve")
    tau1 = cfg.tau1
    tau2 = min(cfg.tau2, library.padded.shape[1] - n)
    if tau2 < tau1:  # also an empty library
        raise NoMatchError(f"unit {unit_id}: no training curve long enough for any lag")
    taus = np.arange(tau1, tau2 + 1)
    n_lags = len(taus)

    m = n + n_lags - 1  # rows of the Toeplitz operand
    shifted = np.zeros(m + n_lags - 1)
    shifted[n_lags - 1 : m] = sig
    toeplitz = sliding_window_view(shifted, n_lags)[:, ::-1]  # column j: s at rows j..j+n-1
    cross = library.padded[:, tau1 : tau1 + m] @ toeplitz
    energy = library.energy
    d2 = energy[:, tau1 + n : tau2 + n + 1] - energy[:, tau1 : tau2 + 1]
    d2 -= 2.0 * cross
    d2 += sig @ sig
    d2 /= n
    np.maximum(d2, 0.0, out=d2)

    rul_all = (library.lengths - n)[:, None] - taus
    valid = rul_all >= 0
    d2 = d2[valid]
    if not np.isfinite(d2).all():
        raise NumericalError(f"unit {unit_id}: non-finite curve distance (overflow)")
    ruls = rul_all[valid].astype(float)
    # d2 is not empty: the longest curve overlaps fully at lag tau1
    bandwidth = max(float(d2.min()), BANDWIDTH_FLOOR)
    with np.errstate(over="ignore"):  # a huge d2 over a small bandwidth: that weight is 0
        sims = np.exp(d2 / -bandwidth)
    return valid, ruls, sims


def estimate_rul(unit_id: int, sigma: np.ndarray, library: Library, cfg: RunConfig) -> RulEstimate:
    """Weighted mean of the candidate RULs of one test unit's sigma over all
    library curves and lags in [tau1, tau2]; see the module docstring.

    Raises NoMatchError when no pair has full overlap and NumericalError when
    the test curve is not finite or a distance overflows.
    """
    _, ruls, sims = _candidates(unit_id, sigma, library, cfg)
    sum_s = float(sims.sum())  # >= e^-1, the nearest candidate's weight
    return RulEstimate(
        unit_id=unit_id,
        estimate=float((sims * ruls).sum()) / sum_s,
        sum_similarity=sum_s,
        n_candidates=len(ruls),
    )
