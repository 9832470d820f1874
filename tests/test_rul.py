import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack.config import RunConfig
from subtrack.dataset import TrajectorySet
from subtrack.errors import NoMatchError, NumericalError, ValidationError
from subtrack.health import CURVE_COLUMNS, SIGMA
from subtrack.fit import prepare_library
from subtrack.rul import BANDWIDTH_FLOOR, Library, _candidates, estimate_rul

U = 2.0**-53  # unit roundoff of float64


def curve(unit_id, sigma):
    """A test curve: the (unit id, sigma) arguments of estimate_rul."""
    return unit_id, np.asarray(sigma, dtype=float)


def curve_table(curves):
    """The curve table of (unit id, sigma) pairs, its distances zero."""
    tables = []
    for _, sigma in curves:
        table = np.zeros((len(sigma), len(CURVE_COLUMNS)))
        table[:, SIGMA] = sigma
        tables.append(table)
    return TrajectorySet.stack([u for u, _ in curves], tables)


def library_of(curves):
    """The library of (unit id, sigma) pairs in any order."""
    return prepare_library(curve_table(curves))


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


def similarity(d2: float, bandwidth: float) -> float:
    """exp(-d2 / bandwidth); 1 at a perfect match, decaying with curve distance."""
    if d2 < 0:
        raise ValidationError("squared distance must be >= 0")
    if not bandwidth > 0:
        raise ValidationError("bandwidth must be positive")
    return math.exp(-d2 / bandwidth)


def bandwidth(d2s) -> float:
    """A test unit's bandwidth: its smallest candidate d2, floored."""
    return max(min(d2s), BANDWIDTH_FLOOR)


def candidate_rul(train_len: int, test_len: int, tau: int) -> float:
    """Candidate RUL for one alignment, L - n - tau, clamped at 0."""
    return float(max(0, train_len - test_len - tau))


def oracle_estimate(test_sigma, library, cfg):
    """Independent exhaustive double loop over all (unit, lag) pairs: one
    pass for the distances, the bandwidth from their minimum, then the
    weighted mean."""
    d2s, ruls = [], []
    for unit_id, train_sigma in library:
        for tau in range(cfg.tau1, cfg.tau2 + 1):
            n = len(test_sigma)
            if n + tau > len(train_sigma):
                continue
            d2 = 0.0
            for i in range(n):
                d2 += (test_sigma[i] - train_sigma[i + tau]) ** 2
            d2s.append(d2 / n)
            ruls.append(max(0.0, len(train_sigma) - n - tau))
    b = max(min(d2s), BANDWIDTH_FLOOR)
    num = den = 0.0
    for d2, r in zip(d2s, ruls):
        s = math.exp(-d2 / b)
        num += s * r
        den += s
    return num / den


def reference_estimate(test, library, cfg):
    """The per-candidate scalar loop estimate_rul replaces: the scalar
    helpers above in (unit, lag) order, summed with math.fsum. test and the
    library's curves are (unit id, sigma) pairs.

    Returns (estimate, sum_similarity, bandwidth, candidate rows), each row
    (train_unit, tau, rul, similarity).
    """
    rows = []
    for unit, train in sorted(library, key=lambda c: c[0]):
        for tau in range(cfg.tau1, cfg.tau2 + 1):
            d2 = curve_distance(test[1], train, tau)
            if d2 is None:
                continue
            rows.append((unit, tau, candidate_rul(len(train), len(test[1]), tau), d2))
    b = bandwidth([r[3] for r in rows])
    rows = [(unit, tau, rul, similarity(d2, b)) for unit, tau, rul, d2 in rows]
    sum_s = math.fsum(r[3] for r in rows)
    return math.fsum(r[3] * r[2] for r in rows) / sum_s, sum_s, b, rows


def identity_rounding(test_sigma, library) -> float:
    """A bound on the absolute rounding of any candidate's d2 in the product
    form (|s|^2 - 2 s.w + |w|^2) / n, against the exact value.

    |w|^2 is a difference of prefix sums of at most M squares (M the
    library's padded width), s.w and |s|^2 are sums of n products. Each
    rounds by at most k u times the sum of its terms' magnitudes, k <= M + n
    + 4 counting every rounding on the longest chain (the squares, the sums,
    the two additions, the division by n), and each of those sums is at most
    (sqrt(E) + |s|)^2 with E the largest energy |sigma|^2 of a library
    curve. The first two terms round twice (two prefix sums, the factor 2),
    hence the 2."""
    n, width = len(test_sigma), max(len(sigma) for _, sigma in library)
    energy = max(float(np.dot(sigma, sigma)) for _, sigma in library)
    scale = (math.sqrt(energy) + float(np.linalg.norm(test_sigma))) ** 2
    return 2 * (width + n + 4) * U * scale / n


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
        cfg = RunConfig(tau1=2, tau2=2)
        est = estimate_rul(*test, library_of([train]), cfg)
        assert est.estimate == pytest.approx(15 - 10 - 2)
        assert est.n_candidates == 1

    def test_equal_similarity_symmetry(self):
        test = curve(1, np.full(10, 0.5))
        # same curve shape, lengths chosen so candidates are 10 and 30
        lib = [curve(2, np.full(21, 0.5)), curve(3, np.full(41, 0.5))]
        cfg = RunConfig(tau1=1, tau2=1)
        est = estimate_rul(*test, library_of(lib), cfg)
        assert est.estimate == pytest.approx(20.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        cfg = RunConfig(tau1=1, tau2=15)
        test_sigma = rng.uniform(0, 1, 25)
        library = [
            (u, rng.uniform(0, 1, int(rng.integers(30, 80)))) for u in range(1, 6)
        ]
        est = estimate_rul(
            *curve(99, test_sigma),
            library_of(library),
            cfg,
        )
        assert est.estimate == pytest.approx(
            oracle_estimate(test_sigma, library, cfg), abs=1e-10
        )

    def test_convexity(self):
        rng = np.random.default_rng(2)
        cfg = RunConfig(tau1=0, tau2=10)
        test = curve(1, rng.uniform(0, 1, 20))
        lib = library_of([curve(u, rng.uniform(0, 1, 50)) for u in range(2, 7)])
        est = estimate_rul(*test, lib, cfg)
        _, ruls, _ = _candidates(*test, lib, cfg)
        assert ruls.min() <= est.estimate <= ruls.max()

    def test_library_order_invariance(self):
        rng = np.random.default_rng(3)
        cfg = RunConfig(tau1=1, tau2=8)
        test = curve(1, rng.uniform(0, 1, 15))
        lib = [curve(u, rng.uniform(0, 1, 40)) for u in range(2, 8)]
        a = estimate_rul(*test, library_of(lib), cfg)
        b = estimate_rul(*test, library_of(list(reversed(lib))), cfg)
        assert a.estimate == b.estimate
        assert a.sum_similarity == b.sum_similarity

    def test_self_match_recovers_truth(self):
        # truncated prefix of a training curve, matched only against the
        # original: its lag-0 window is exact, so the floor is the bandwidth
        rng = np.random.default_rng(4)
        full = np.clip(np.linspace(1, 0, 120) + 0.01 * rng.standard_normal(120), 0, 1)
        prefix = full[:70]
        cfg = RunConfig(tau1=0, tau2=40)
        est = estimate_rul(*curve(1, prefix), library_of([curve(2, full)]), cfg)
        assert abs(est.estimate - 50) <= 1.0

    def test_empty_library(self):
        ids = np.zeros(0, dtype=np.int64)
        empty = Library.from_padded(ids, ids, np.zeros((0, 0)))
        with pytest.raises(NoMatchError):
            estimate_rul(*curve(1, np.ones(5)), empty, RunConfig())

    def test_no_overlap_anywhere(self):
        test = curve(1, np.ones(50))
        lib = [curve(2, np.ones(30))]
        with pytest.raises(NoMatchError):
            estimate_rul(
                *test, library_of(lib), RunConfig(tau1=1, tau2=5)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_curve_raises_numerical_error(self, bad):
        cfg = RunConfig(tau1=1, tau2=5)
        poisoned = np.full(10, 0.5)
        poisoned[3] = bad
        with pytest.raises(NumericalError, match="unit 1"):
            estimate_rul(
                *curve(1, poisoned), library_of([curve(2, np.full(30, 0.5))]), cfg
            )
        # the same value in a library curve, inside a lag window or outside
        # every one: the library is rejected when built, naming its unit
        for index in (4, 29):
            lib_sigma = np.full(30, 0.5)
            lib_sigma[index] = bad
            with pytest.raises(NumericalError, match="training unit 2"):
                library_of([curve(3, np.full(30, 0.5)), curve(2, lib_sigma)])

    def test_candidates_in_unit_lag_order(self):
        test = curve(1, np.full(10, 0.5))
        lib = library_of([curve(3, np.full(13, 0.5)), curve(2, np.full(12, 0.5))])
        cfg = RunConfig(tau1=1, tau2=3)
        valid, ruls, sims = _candidates(*test, lib, cfg)
        rows, lags = np.nonzero(valid)
        assert lib.unit_ids[rows].tolist() == [2, 2, 3, 3, 3]
        assert (cfg.tau1 + lags).tolist() == [1, 2, 1, 2, 3]
        assert ruls.tolist() == [1.0, 0.0, 2.0, 1.0, 0.0]
        assert sims.tolist() == [1.0] * 5
        assert estimate_rul(*test, lib, cfg).n_candidates == 5

    def test_nearest_candidate_weighs_e_to_the_minus_one(self):
        test = curve(1, np.ones(10))
        lib = [curve(2, np.zeros(30)), curve(3, np.full(40, 0.5))]
        cfg = RunConfig(tau1=1, tau2=1)
        _, ruls, sims = _candidates(*test, library_of(lib), cfg)
        # d2 is 1 and 0.25: the bandwidth 0.25 weighs them e^-4 and e^-1
        assert sims.tolist() == [math.exp(-4.0), math.exp(-1.0)]
        est = estimate_rul(*test, library_of(lib), cfg)
        assert est.estimate == pytest.approx(
            (19 * math.exp(-4.0) + 29 * math.exp(-1.0)) / (math.exp(-4.0) + math.exp(-1.0)),
            rel=1e-15,
        )

    def test_test_curve_equal_to_a_library_window_gets_its_rul(self):
        # the smallest d2 is 0, so the floor is the bandwidth: that window
        # weighs about 1 and every other candidate underflows to 0
        rng = np.random.default_rng(5)
        full = np.sort(rng.uniform(0, 1, 90))[::-1]
        others = [curve(u, rng.uniform(0, 1, 80)) for u in (3, 4)]
        cfg = RunConfig(tau1=0, tau2=30)
        lib = library_of([curve(2, full), *others])
        _, ruls, sims = _candidates(*curve(1, full[12:62]), lib, cfg)
        (match,) = np.flatnonzero(sims > 0)
        assert ruls[match] == 90 - 50 - 12
        assert sims[match] >= math.exp(-0.01)
        est = estimate_rul(*curve(1, full[12:62]), lib, cfg)
        assert est.estimate == 90 - 50 - 12
        assert est.sum_similarity == sims[match]

    def test_far_candidate_weighs_zero_without_numpy_warning(self):
        # d2 / bandwidth overflows: a finite 1e298 over the floor. pytest
        # turns a RuntimeWarning into an error
        test = curve(1, np.full(5, 0.5))
        lib = [curve(2, np.full(10, 0.5)), curve(3, np.full(10, 1e149))]
        est = estimate_rul(*test, library_of(lib), RunConfig(tau1=1, tau2=1))
        assert (est.estimate, est.sum_similarity, est.n_candidates) == (4.0, 1.0, 2)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=50, deadline=None)
@given(
    d2a=st.floats(0.0, 10.0),
    d2b=st.floats(0.0, 10.0),
    b=st.floats(1e-3, 10.0),
)
def test_similarity_strictly_monotone(d2a, d2b, b):
    # strictness needs a gap exp() can resolve in double precision,
    # and exponents small enough that exp() does not underflow to 0
    assume(d2a == d2b or abs(d2a - d2b) / b > 1e-12)
    assume(max(d2a, d2b) / b < 700.0)
    if d2a < d2b:
        assert similarity(d2a, b) > similarity(d2b, b)
    elif d2a > d2b:
        assert similarity(d2a, b) < similarity(d2b, b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_estimate_always_convex_combination(seed):
    rng = np.random.default_rng(seed)
    cfg = RunConfig(tau1=0, tau2=5)
    test = curve(1, rng.uniform(0, 1, int(rng.integers(5, 20))))
    lib = [
        curve(u, rng.uniform(0, 1, int(rng.integers(25, 60)))) for u in range(2, 6)
    ]
    library = library_of(lib)
    est = estimate_rul(*test, library, cfg)
    _, ruls, _ = _candidates(*test, library, cfg)
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
    test = curve(0, rng.uniform(0, 1, n))
    library = [curve(u, rng.uniform(0, 1, L)) for u, L in zip(unit_ids, lengths)]
    return test, library, RunConfig(tau1=tau1, tau2=tau2)


def bounds(test, library, rows, estimate, sum_s, b):
    """How far the product form's weights, weight sum and estimate may be
    from the scalar reference's; see test_estimate_matches_scalar_reference."""
    n_cand, n = len(rows), len(test[1])
    tol_w = 2 * identity_rounding(test[1], library) / b + 2 * (n + 2) * U
    tol_sum = n_cand * tol_w + 2 * n_cand * U * sum_s
    low_sum = max(sum_s - n_cand * tol_w, math.exp(-1) * (1 - 4 * U))
    spread = math.fsum(abs(r[2] - estimate) for r in rows)
    tol_est = tol_w * spread / low_sum + 4 * n_cand * U * estimate
    return tol_w, tol_sum, tol_est


@settings(max_examples=200, deadline=None)
@given(problem=match_problems())
def test_estimate_matches_scalar_reference(problem):
    """The candidate (unit, lag) pairs, their RULs and their count agree
    exactly with the scalar loop. Weights, their sum and the estimate agree
    to the product form's rounding over the bandwidth b (bounds):

    - d2 rounds by at most delta (identity_rounding), and b, a floored
      minimum of d2, by at most delta too. A weight exp(-r), r = d2 / b, then
      moves by at most (1 + r) e^-r delta / b <= delta / b to first order.
      The weights' tolerance is twice that, for the second-order terms,
      plus 2 (n + 2) u for the scalar loop's own relative rounding.
    - The sum of N weights moves by at most N times a weight's tolerance,
      plus its summation rounding.
    - The estimate is sum w r / sum w, and sum w (r - estimate) is 0, so it
      moves by at most tol_w sum |r - estimate| over the computed sum,
      which is at least the reference sum less N tol_w, plus its rounding.
    """
    test, library, cfg = problem
    estimate, sum_s, b, rows = reference_estimate(test, library, cfg)
    lib = library_of(library)
    valid, ruls, sims = _candidates(*test, lib, cfg)
    units, lags = np.nonzero(valid)
    pairs = list(zip(lib.unit_ids[units].tolist(), (cfg.tau1 + lags).tolist()))
    assert pairs == [(r[0], r[1]) for r in rows]
    assert ruls.tolist() == [r[2] for r in rows]

    tol_w, tol_sum, tol_est = bounds(test, library, rows, estimate, sum_s, b)
    assert sims.tolist() == pytest.approx([r[3] for r in rows], rel=0, abs=tol_w)
    est = estimate_rul(*test, lib, cfg)
    assert est.n_candidates == len(rows)
    assert est.estimate == pytest.approx(estimate, rel=0, abs=tol_est)
    assert est.sum_similarity == pytest.approx(sum_s, rel=0, abs=tol_sum)
    assert est.sum_similarity >= math.exp(-1)


@settings(max_examples=100, deadline=None)
@given(problem=match_problems(), c=st.floats(1e-3, 1e3))
def test_estimate_is_scale_free(problem, c):
    """Multiplying every sigma by c multiplies every d2, and the bandwidth,
    by c^2, so estimates and weight sums stay, each within the sum of the
    two problems' bounds, unless the floor binds."""
    test, library, cfg = problem
    scaled = (
        (test[0], c * test[1]),
        [(u, c * sigma) for u, sigma in library],
        cfg,
    )
    got = []
    for t, lib, _ in (problem, scaled):
        estimate, sum_s, b, rows = reference_estimate(t, lib, cfg)
        assume(b > BANDWIDTH_FLOOR)
        est = estimate_rul(*t, library_of(lib), cfg)
        got.append((est, bounds(t, lib, rows, estimate, sum_s, b)))
    (a, (_, a_sum, a_est)), (s, (_, s_sum, s_est)) = got
    assert s.estimate == pytest.approx(a.estimate, rel=0, abs=a_est + s_est)
    assert s.sum_similarity == pytest.approx(a.sum_similarity, rel=0, abs=a_sum + s_sum)
