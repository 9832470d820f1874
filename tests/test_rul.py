import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack.config import RunConfig
from subtrack.errors import NoMatchError, NumericalError, ValidationError
from subtrack.health import HiCurve
from subtrack.rul import _candidates, estimate_rul, prepare_library


def curve(unit_id, sigma):
    sigma = np.asarray(sigma, dtype=float)
    return HiCurve(
        unit_id=unit_id,
        sigma=sigma,
        raw_dist=np.zeros_like(sigma),
        scaled_dist=np.zeros_like(sigma),
    )


# ---------------------------------------------------------------------------
# the scalar reference: one candidate at a time


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


def candidate_rul(train_len: int, test_len: int, tau: int) -> float:
    """Candidate RUL for one alignment, L - n - tau, clamped at 0."""
    return float(max(0, train_len - test_len - tau))


def oracle_estimate(test_sigma, library, cfg):
    """Independent exhaustive double loop over all (unit, lag) pairs."""
    num = 0.0
    den = 0.0
    for unit_id, train_sigma in library:
        for tau in range(cfg.tau1, cfg.tau2 + 1):
            n = len(test_sigma)
            if n + tau > len(train_sigma):
                continue
            d2 = 0.0
            for i in range(n):
                d2 += (test_sigma[i] - train_sigma[i + tau]) ** 2
            d2 /= n
            s = math.exp(-d2 / cfg.beta)
            r = max(0.0, len(train_sigma) - n - tau)
            num += s * r
            den += s
    return num / den


def reference_estimate(test, library, cfg):
    """The per-candidate scalar loop estimate_rul replaces: the scalar
    helpers above in (unit, lag) order, summed with math.fsum.

    Returns (estimate, sum_similarity, underflow, candidate rows), each row
    (train_unit, tau, rul, similarity).
    """
    rows = []
    for train in sorted(library, key=lambda c: c.unit_id):
        for tau in range(cfg.tau1, cfg.tau2 + 1):
            d2 = curve_distance(test.sigma, train.sigma, tau)
            if d2 is None:
                continue
            rul = candidate_rul(len(train), len(test), tau)
            rows.append((train.unit_id, tau, rul, similarity(d2, cfg.beta)))
    sum_s = math.fsum(r[3] for r in rows)
    if sum_s > 0.0:
        return math.fsum(r[3] * r[2] for r in rows) / sum_s, sum_s, False, rows
    return math.fsum(r[2] for r in rows) / len(rows), sum_s, True, rows


class TestCurveDistance:
    def test_identical_curves_zero(self):
        sig = np.linspace(1, 0, 10)
        assert curve_distance(sig, sig, 0) == 0.0

    def test_hand_computed(self):
        test = np.array([1.0, 1.0])
        train = np.array([1.0, 1.0, 0.5])
        assert curve_distance(test, train, 0) == 0.0
        assert curve_distance(test, train, 1) == pytest.approx(0.125)

    def test_insufficient_overlap_returns_none(self):
        assert curve_distance(np.ones(5), np.ones(6), 2) is None

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        test = rng.uniform(0, 1, 20)
        train = rng.uniform(0, 1, 60)
        for tau in range(0, 41):
            got = curve_distance(test, train, tau)
            expected = sum(
                (test[i] - train[i + tau]) ** 2 for i in range(20)
            ) / 20
            assert got == pytest.approx(expected, rel=1e-12)


class TestSimilarity:
    def test_zero_distance(self):
        assert similarity(0.0, 0.0235) == 1.0

    def test_distance_equal_beta(self):
        assert similarity(2.0, 2.0) == pytest.approx(math.exp(-1))

    def test_reference_value(self):
        assert similarity(0.01, 0.0235) == pytest.approx(
            math.exp(-0.01 / 0.0235), rel=1e-12
        )
        assert similarity(0.01, 0.0235) == pytest.approx(0.6534221, abs=1e-6)

    def test_monotone_decreasing(self):
        assert similarity(0.1, 1.0) > similarity(0.2, 1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            similarity(-0.1, 1.0)


class TestCandidateRul:
    def test_direct_formula(self):
        assert candidate_rul(200, 150, 10) == 40.0

    def test_boundary_zero(self):
        assert candidate_rul(200, 200, 0) == 0.0

    def test_negative_clamps_to_zero(self):
        assert candidate_rul(160, 150, 20) == 0.0


class TestEstimateRul:
    def test_single_candidate(self):
        test = curve(1, np.full(10, 0.8))
        train = curve(2, np.full(15, 0.8))
        cfg = RunConfig(tau1=2, tau2=2, beta=0.1)
        est = estimate_rul(test, prepare_library([train]), cfg)
        assert est.estimate == pytest.approx(15 - 10 - 2)
        assert est.n_candidates == 1

    def test_equal_similarity_symmetry(self):
        test = curve(1, np.full(10, 0.5))
        # same curve shape, lengths chosen so candidates are 10 and 30
        lib = [curve(2, np.full(21, 0.5)), curve(3, np.full(41, 0.5))]
        cfg = RunConfig(tau1=1, tau2=1, beta=0.1)
        est = estimate_rul(test, prepare_library(lib), cfg)
        assert est.estimate == pytest.approx(20.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        cfg = RunConfig(tau1=1, tau2=15, beta=0.0235)
        test_sigma = rng.uniform(0, 1, 25)
        library = [
            (u, rng.uniform(0, 1, int(rng.integers(30, 80)))) for u in range(1, 6)
        ]
        est = estimate_rul(
            curve(99, test_sigma),
            prepare_library([curve(u, s) for u, s in library]),
            cfg,
        )
        assert est.estimate == pytest.approx(
            oracle_estimate(test_sigma, library, cfg), abs=1e-10
        )

    def test_convexity(self):
        rng = np.random.default_rng(2)
        cfg = RunConfig(tau1=0, tau2=10, beta=0.01)
        test = curve(1, rng.uniform(0, 1, 20))
        lib = prepare_library([curve(u, rng.uniform(0, 1, 50)) for u in range(2, 7)])
        est = estimate_rul(test, lib, cfg)
        _, ruls, _ = _candidates(test, lib, cfg)
        assert ruls.min() <= est.estimate <= ruls.max()

    def test_library_order_invariance(self):
        rng = np.random.default_rng(3)
        cfg = RunConfig(tau1=1, tau2=8, beta=0.05)
        test = curve(1, rng.uniform(0, 1, 15))
        lib = [curve(u, rng.uniform(0, 1, 40)) for u in range(2, 8)]
        a = estimate_rul(test, prepare_library(lib), cfg)
        b = estimate_rul(test, prepare_library(list(reversed(lib))), cfg)
        assert a.estimate == b.estimate
        assert a.sum_similarity == b.sum_similarity

    def test_self_match_recovers_truth(self):
        # truncated prefix of a training curve, matched only against the
        # original, with a near-delta similarity bandwidth
        rng = np.random.default_rng(4)
        full = np.clip(np.linspace(1, 0, 120) + 0.01 * rng.standard_normal(120), 0, 1)
        prefix = full[:70]
        cfg = RunConfig(tau1=0, tau2=40, beta=1e-6)
        est = estimate_rul(curve(1, prefix), prepare_library([curve(2, full)]), cfg)
        assert abs(est.estimate - 50) <= 1.0

    def test_empty_library(self):
        with pytest.raises(NoMatchError):
            estimate_rul(curve(1, np.ones(5)), prepare_library([]), RunConfig())

    def test_no_overlap_anywhere(self):
        test = curve(1, np.ones(50))
        lib = [curve(2, np.ones(30))]
        with pytest.raises(NoMatchError):
            estimate_rul(
                test, prepare_library(lib), RunConfig(tau1=1, tau2=5, beta=0.1)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_curve_raises_numerical_error(self, bad):
        cfg = RunConfig(tau1=1, tau2=5, beta=0.1)
        poisoned = np.full(10, 0.5)
        poisoned[3] = bad
        with pytest.raises(NumericalError, match="unit 1"):
            estimate_rul(
                curve(1, poisoned), prepare_library([curve(2, np.full(30, 0.5))]), cfg
            )
        # the same value in a library curve, inside a lag window or outside
        # every one: the library is rejected when built, naming its unit
        for index in (4, 29):
            lib_sigma = np.full(30, 0.5)
            lib_sigma[index] = bad
            with pytest.raises(NumericalError, match="training unit 2"):
                prepare_library([curve(3, np.full(30, 0.5)), curve(2, lib_sigma)])

    def test_candidates_in_unit_lag_order(self):
        test = curve(1, np.full(10, 0.5))
        lib = prepare_library([curve(3, np.full(13, 0.5)), curve(2, np.full(12, 0.5))])
        cfg = RunConfig(tau1=1, tau2=3, beta=0.1)
        valid, ruls, sims = _candidates(test, lib, cfg)
        rows, lags = np.nonzero(valid)
        assert lib.unit_ids[rows].tolist() == [2, 2, 3, 3, 3]
        assert (cfg.tau1 + lags).tolist() == [1, 2, 1, 2, 3]
        assert ruls.tolist() == [1.0, 0.0, 2.0, 1.0, 0.0]
        assert sims.tolist() == [1.0] * 5
        assert estimate_rul(test, lib, cfg).n_candidates == 5

    def test_similarity_underflow_falls_back_to_mean(self):
        test = curve(1, np.ones(10))
        lib = [curve(2, np.zeros(30)), curve(3, np.zeros(40))]
        cfg = RunConfig(tau1=1, tau2=1, beta=1e-300)
        est = estimate_rul(test, prepare_library(lib), cfg)
        assert est.similarity_underflow
        assert est.estimate == pytest.approx((19 + 29) / 2)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=50, deadline=None)
@given(
    d2a=st.floats(0.0, 10.0),
    d2b=st.floats(0.0, 10.0),
    beta=st.floats(1e-3, 10.0),
)
def test_similarity_strictly_monotone(d2a, d2b, beta):
    # strictness needs a gap exp() can resolve in double precision,
    # and exponents small enough that exp() does not underflow to 0
    assume(d2a == d2b or abs(d2a - d2b) / beta > 1e-12)
    assume(max(d2a, d2b) / beta < 700.0)
    if d2a < d2b:
        assert similarity(d2a, beta) > similarity(d2b, beta)
    elif d2a > d2b:
        assert similarity(d2a, beta) < similarity(d2b, beta)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_estimate_always_convex_combination(seed):
    rng = np.random.default_rng(seed)
    cfg = RunConfig(tau1=0, tau2=5, beta=0.1)
    test = curve(1, rng.uniform(0, 1, int(rng.integers(5, 20))))
    lib = [
        curve(u, rng.uniform(0, 1, int(rng.integers(25, 60)))) for u in range(2, 6)
    ]
    library = prepare_library(lib)
    est = estimate_rul(test, library, cfg)
    _, ruls, _ = _candidates(test, library, cfg)
    assert ruls.min() - 1e-12 <= est.estimate <= ruls.max() + 1e-12


@st.composite
def match_problems(draw):
    """A test curve, a library and a lag range. Library lengths run from
    shorter than the test curve, through equal, to longer than every lag
    needs, so units with no valid lag mix with matching ones."""
    tau1 = draw(st.integers(0, 3))
    tau2 = tau1 + draw(st.integers(0, 8))
    n = draw(st.integers(1, 25))
    lengths = draw(
        st.lists(st.integers(max(1, n - 5), n + tau2 + 6), min_size=1, max_size=6)
    )
    # at least one unit has a full-overlap candidate
    lengths.append(draw(st.integers(n + tau1, n + tau2 + 6)))
    unit_ids = draw(st.permutations(range(1, len(lengths) + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = draw(st.sampled_from([1e-4, 0.0235, 0.5, 10.0]))
    test = curve(0, rng.uniform(0, 1, n))
    library = [curve(u, rng.uniform(0, 1, L)) for u, L in zip(unit_ids, lengths)]
    return test, library, RunConfig(tau1=tau1, tau2=tau2, beta=beta)


@settings(max_examples=200, deadline=None)
@given(problem=match_problems())
def test_estimate_matches_scalar_reference(problem):
    """The product-form distances round differently from the scalar loop:
    the candidate (unit, lag) pairs, their RULs, their count and the
    underflow flag agree exactly, the similarities and what is summed from
    them to a relative 1e-9."""
    test, library, cfg = problem
    estimate, sum_s, underflow, rows = reference_estimate(test, library, cfg)
    lib = prepare_library(library)
    valid, ruls, sims = _candidates(test, lib, cfg)
    units, lags = np.nonzero(valid)
    pairs = list(zip(lib.unit_ids[units].tolist(), (cfg.tau1 + lags).tolist()))
    assert pairs == [(r[0], r[1]) for r in rows]
    assert ruls.tolist() == [r[2] for r in rows]
    assert sims.tolist() == pytest.approx([r[3] for r in rows], rel=1e-9, abs=0)
    est = estimate_rul(test, lib, cfg)
    assert est.n_candidates == len(rows)
    assert est.similarity_underflow == underflow
    assert est.estimate == pytest.approx(estimate, rel=1e-9, abs=0)
    assert est.sum_similarity == pytest.approx(sum_s, rel=1e-9, abs=0)
