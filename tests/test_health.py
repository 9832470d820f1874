import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

from subtrack.config import RunConfig
from subtrack.errors import NumericalError, ValidationError
from subtrack.fit import _median, fit_hi_regression, fit_scaler, pad_units, train_pipeline
from subtrack.health import (
    DistanceScaler,
    SIGMA,
    predict_hi,
    scale,
    smooth_units,
    to_health_index,
)
from subtrack.multiscale import MultiModel, assign_rows
from subtrack.subspace import mahalanobis_rows
from subtrack.synthetic import SynthConfig, generate_synthetic

from test_subspace import DELTA, random_model, solo


class TestDistanceSeries:
    def test_center_copies_give_zeros(self):
        model = random_model(np.random.default_rng(0), 8, 2)
        rows = np.tile(model.center, (10, 1))
        np.testing.assert_array_equal(assign_rows(solo(model), rows, DELTA)[1], np.zeros(10))

    def test_shape_contract(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 8, 2)
        assert assign_rows(solo(model), rng.standard_normal((37, 8)), DELTA)[1].shape == (37,)

    def test_drifting_unit_is_increasing(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 8, 2)
        drift_dir = rng.standard_normal(8)
        drift_dir -= model.basis @ (model.basis.T @ drift_dir)
        drift_dir /= np.linalg.norm(drift_dir)
        t = np.arange(1, 101)
        rows = model.center + np.outer(0.1 * t, drift_dir) \
            + 0.01 * rng.standard_normal((100, 8))
        dists = assign_rows(solo(model), rows, DELTA)[1]
        rho, _ = spearmanr(t, dists)
        assert rho >= 0.9

    def test_multimodel_records_minimum(self):
        rng = np.random.default_rng(3)
        models = [random_model(rng, 8, 2) for _ in range(3)]
        mm = MultiModel(
            models=models, centroids=np.arange(9, dtype=float).reshape(3, 3)
        )
        rows = rng.standard_normal((20, 8))
        dists = assign_rows(mm, rows, DELTA)[1]
        all_dists = np.array([mahalanobis_rows(m, rows, DELTA) for m in models])
        np.testing.assert_allclose(dists, all_dists.min(axis=0))


class TestRegressorInput:
    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_sst_lr_sigma_falls_when_drift_leaves_the_subspace(self, n_regimes):
        # the package generator drifts orthogonally to the healthy subspace,
        # where the d in-subspace projections see nothing; the regressor
        # reads the whole tracked row, so its index falls from the healthy
        # window to failure as the sst index does (measured: a fall of
        # 0.86-0.91 over generator seeds 0-3; 0.05 at most from projections)
        train, _, _, _ = generate_synthetic(SynthConfig(
            n_units=12, n_regimes=n_regimes, drift_rate=0.03, seed=0,
            min_cycles=80, max_cycles=120,
        ))
        cfg = RunConfig(mode="sst-lr", healthy_cycles=20, tau2=20)
        _, curves = train_pipeline(train, cfg)
        healthy = np.mean([c[: cfg.healthy_cycles, SIGMA].mean() for c in curves])
        final = np.mean([c[-1, SIGMA] for c in curves])
        assert healthy - final >= 0.5


class TestScaler:
    def test_fit_on_constructed_fleet(self):
        # every unit: healthy mean 1.0, converging to smoothed final 9.0
        raw = np.tile(np.concatenate([np.full(20, 1.0), np.full(200, 9.0)]), 5)
        bounds = list(range(0, len(raw) + 1, 220))
        scaler = fit_scaler(raw, smooth_units(raw, bounds, 0.5), bounds, healthy_cycles=20)
        assert scaler.floor == pytest.approx(1.0)
        assert scaler.ceiling == pytest.approx(9.0)

    def test_single_unit_fleet(self):
        series = np.concatenate([np.full(10, 2.0), np.full(100, 6.0)])
        scaler = fit_scaler(series, series, [0, len(series)], healthy_cycles=10)
        assert scaler.floor == pytest.approx(2.0)
        assert scaler.ceiling == pytest.approx(6.0)

    def test_degenerate_fleet(self):
        series = np.full(50, 3.0)
        with pytest.raises(ValidationError, match="degenerate"):
            fit_scaler(series, series, [0, 50], healthy_cycles=10)

    def test_overflowing_healthy_means_raise(self):
        # every distance is finite, but the healthy-window sums of two of the
        # three units overflow, and so does the median of the unit means
        raw = np.concatenate([np.full(30, 1e308), np.full(30, 1e308), np.full(30, 1.0)])
        assert np.isfinite(raw).all()
        with pytest.raises(NumericalError, match="^healthy-level distance overflows$"):
            fit_scaler(raw, raw, [0, 30, 60, 90], healthy_cycles=10)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60)
           | st.lists(st.sampled_from([0.0, -0.0, 1.5, np.inf]), min_size=1, max_size=6))
    def test_median_is_np_median_bit_for_bit(self, values):
        with np.errstate(all="ignore"):  # np.mean of two huge values overflows
            expected = float(np.median(values))
        assert repr(_median(values)) == repr(expected)

    def test_scale_endpoints_and_clamp(self):
        scaler = DistanceScaler(floor=1.0, ceiling=9.0)
        np.testing.assert_allclose(scale(scaler, np.array([1.0])), [0.0])
        np.testing.assert_allclose(scale(scaler, np.array([9.0])), [1.0])
        np.testing.assert_allclose(scale(scaler, np.array([19.0])), [1.0])
        np.testing.assert_allclose(scale(scaler, np.array([-5.0])), [0.0])


class TestHealthIndex:
    def test_endpoints(self):
        np.testing.assert_allclose(to_health_index(np.array([0.0, 1.0])), [1.0, 0.0])

    def test_quarter(self):
        assert to_health_index(np.array([0.25]))[0] == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            to_health_index(np.array([1.5]))


def smooth_one(series, factor, out=None):
    """smooth_units over a fleet of one unit."""
    return smooth_units(series, [0, len(series)], factor, out=out)


class TestSmooth:
    def test_identity_factor(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        np.testing.assert_array_equal(smooth_one(x, 1.0), x)

    def test_constant_fixed_point(self):
        x = np.full(20, 2.5)
        np.testing.assert_allclose(smooth_one(x, 0.3), x)

    def test_step_series(self):
        out = smooth_one(np.array([0.0, 0.0, 1.0, 1.0]), 0.5)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.5, 0.75])

    def test_invalid_factor(self):
        with pytest.raises(ValidationError):
            smooth_one(np.zeros(3), 0.0)


def reference_smooth(series, factor):
    """The per-element EMA recurrence in Python floats."""
    out = []
    for v in series:
        out.append(v if not out else factor * v + (1.0 - factor) * out[-1])
    return out


def fleet_series(curves):
    """The rows and bounds of a fleet whose units hold the given series."""
    bounds = [0, *np.cumsum([len(c) for c in curves], dtype=int).tolist()]
    return np.array([v for c in curves for v in c], dtype=float), bounds


# no unit, units of one cycle and units in no order of length among the draws
UNIT_SERIES = st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), min_size=0, max_size=6
)


@settings(max_examples=100, deadline=None)
@given(curves=UNIT_SERIES, factor=st.floats(0.01, 1.0))
def test_smooth_units_bit_equal_to_reference(curves, factor):
    values, bounds = fleet_series(curves)
    want = np.array([v for c in curves for v in reference_smooth(c, factor)], dtype=float)
    assert smooth_units(values, bounds, factor).tobytes() == want.tobytes()
    # the fleet path smooths in place: each cycle reads only the input at
    # that cycle and the output at the one before
    assert smooth_units(values, bounds, factor, out=values) is values
    assert values.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(curves=UNIT_SERIES, factor=st.floats(0.01, 1.0))
def test_smooth_units_each_bit_equal_to_smoothing_each_alone(curves, factor):
    # a unit's smoothed series does not depend on its fleet mates; the one
    # padder, pad_units, lays out the matching library
    values, bounds = fleet_series(curves)
    padded = pad_units(values, bounds)
    got = smooth_units(values, bounds, factor)
    assert len(got) == len(values)
    for row, c, a, b in zip(padded, curves, bounds, bounds[1:]):
        assert row.tobytes() == np.array(c + [0.0] * (padded.shape[1] - len(c))).tobytes()
        assert got[a:b].tobytes() == smooth_one(np.array(c), factor).tobytes()


def test_smooth_units_in_place_allocates_no_fleet_length_temporary():
    # each cycle gathers the rows of the units still running, so smoothing a
    # fleet-length series in place holds O(units) beside it (measured 0.03x
    # here); a zero-padded (units, longest unit) stack holds more than the
    # series (3.7x)
    rng = np.random.default_rng(2)
    lengths = rng.integers(100, 300, 200)
    values = rng.uniform(0.0, 1.0, lengths.sum())
    bounds = [0, *np.cumsum(lengths).tolist()]
    smooth_units(values, bounds, 0.3, out=values)  # warm: first-call allocations
    tracemalloc.start()
    try:
        smooth_units(values, bounds, 0.3, out=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * values.nbytes


def test_scale_and_health_index_in_place_bit_equal():
    # the curve table's scaled and sigma columns are written in place
    raw = np.random.default_rng(4).uniform(-1.0, 12.0, 500)
    scaler = DistanceScaler(floor=1.25, ceiling=9.5)
    want = scale(scaler, raw)
    got = raw.copy()
    assert scale(scaler, got, out=got) is got
    assert got.tobytes() == want.tobytes()
    sigma = np.empty_like(got)
    assert to_health_index(got, out=sigma) is sigma
    assert sigma.tobytes() == to_health_index(want).tobytes()


def regime0(n):
    """Regime labels putting all n rows in regime 0."""
    return np.zeros(n, dtype=int)


class TestHiRegression:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(5)
        proj = rng.standard_normal((50, 3))
        w = np.array([0.1, -0.2, 0.05])
        y = np.clip(proj @ w + 0.5, 0, 1)
        keep = (proj @ w + 0.5 >= 0) & (proj @ w + 0.5 <= 1)
        reg = fit_hi_regression([(proj[keep], y[keep], regime0(keep.sum()))], 1)
        pred = predict_hi(reg, proj[keep], regime0(keep.sum()))
        assert np.max(np.abs(pred - y[keep])) <= 1e-8

    def test_constant_targets(self):
        rng = np.random.default_rng(6)
        proj = rng.standard_normal((30, 2))
        reg = fit_hi_regression([(proj, np.full(30, 0.7), regime0(30))], 1)
        np.testing.assert_allclose(reg[0, :-1], 0.0, atol=1e-6)
        assert reg[0, -1] == pytest.approx(0.7, abs=1e-8)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(7)
        proj = rng.standard_normal((100, 3))
        y = np.clip(0.5 + 0.1 * rng.standard_normal(100), 0, 1)
        reg = fit_hi_regression([(proj, y, regime0(100))], 1)
        a = np.hstack([proj, np.ones((100, 1))])
        oracle = np.linalg.pinv(a) @ y
        np.testing.assert_allclose(reg[0], oracle, atol=1e-8)

    def test_blocks_add_up_to_one_fit(self):
        # the sums of uneven blocks with mixed labels solve to the weights
        # of the whole set in one block
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((90, 4))
        y, labels = rng.uniform(0, 1, 90), rng.integers(0, 2, 90)
        whole = fit_hi_regression([(rows, y, labels)], 2)
        cuts = [0, 7, 40, 41, 90]
        blocks = [(rows[a:b], y[a:b], labels[a:b]) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_allclose(
            fit_hi_regression(blocks, 2), whole, rtol=0, atol=1e-12
        )

    def test_no_blocks_raises(self):
        with pytest.raises(ValidationError, match="no rows"):
            fit_hi_regression([], 1)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            fit_hi_regression([(np.zeros((3, 3)), np.zeros(3), regime0(3))], 1)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_regime_without_rows_raises_wherever_it_is(self, empty):
        # the table has one row per regime of the model, so an empty last
        # regime fails here as an empty first or middle one does
        rng = np.random.default_rng(8)
        labels = np.delete(np.arange(3), empty).repeat(20)
        proj, y = rng.standard_normal((40, 2)), rng.uniform(0, 1, 40)
        with pytest.raises(ValidationError, match=f"regime {empty}: 0 samples"):
            fit_hi_regression([(proj, y, labels)], n_regimes=3)

    def test_per_regime_fit(self):
        rng = np.random.default_rng(8)
        proj = rng.standard_normal((60, 2))
        labels = np.repeat([0, 1], 30)
        y = np.where(labels == 0, 0.2, 0.8)
        reg = fit_hi_regression([(proj, y, labels)], n_regimes=2)
        assert reg.shape == (2, 3)
        pred = predict_hi(reg, proj, labels=labels)
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_predict_clamps(self):
        reg = np.array([[1.0, 0.0]])
        assert predict_hi(reg, np.array([[1.3]]), regime0(1))[0] == 1.0
        assert predict_hi(reg, np.array([[-0.5]]), regime0(1))[0] == 0.0

    def test_zero_weights_constant_intercept(self):
        reg = np.array([[0.0, 0.0, 0.7]])
        out = predict_hi(reg, np.zeros((5, 2)), regime0(5))
        np.testing.assert_allclose(out, 0.7)

    def test_predict_dimension_mismatch(self):
        reg = np.array([[0.0, 0.0, 0.7]])
        with pytest.raises(ValidationError):
            predict_hi(reg, np.zeros((5, 3)), regime0(5))


class TestScaleToHealthIndex:
    def test_smoothed_series_maps_into_unit_interval(self):
        rng = np.random.default_rng(9)
        raw = np.abs(rng.standard_normal(80)).cumsum() * 0.1
        scaler = DistanceScaler(floor=0.0, ceiling=raw.max())
        scaled = scale(scaler, smooth_one(raw, 0.3))
        sigma = to_health_index(scaled)
        assert len(sigma) == len(scaled) == 80
        np.testing.assert_allclose(sigma, 1.0 - np.sqrt(scaled), atol=1e-12)
        assert np.all((sigma >= 0) & (sigma <= 1))


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_health_index_bijection(scaled):
    scaled = np.array(scaled)
    sigma = to_health_index(scaled)
    np.testing.assert_allclose((1.0 - sigma) ** 2, scaled, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(0.0, 100.0),
    b=st.floats(0.0, 100.0),
    floor=st.floats(0.0, 1.0),
    width=st.floats(0.5, 10.0),
)
def test_health_decreases_with_distance(a, b, floor, width):
    scaler = DistanceScaler(floor=floor, ceiling=floor + width)
    sig_a = to_health_index(scale(scaler, np.array([a])))[0]
    sig_b = to_health_index(scale(scaler, np.array([b])))[0]
    if a >= b:
        assert sig_a <= sig_b
    else:
        assert sig_a >= sig_b


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pipeline_outputs_stay_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    raw = np.abs(rng.standard_normal(50)) * rng.uniform(0.1, 10)
    scaler = DistanceScaler(floor=0.1, ceiling=2.0)
    scaled = scale(scaler, raw)
    assert np.all((scaled >= 0) & (scaled <= 1))
    sigma = to_health_index(scaled)
    assert np.all((sigma >= 0) & (sigma <= 1))
