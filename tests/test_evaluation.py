import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtrack import health
from subtrack.config import RunConfig
from subtrack.dataset import N_SETTINGS, SynthConfig, generate_synthetic
from subtrack.errors import ValidationError
from subtrack.evaluation import (
    build_report,
    infer_curves,
    rmse,
    run_pipeline,
    score,
    train_pipeline,
)
from subtrack.multiscale import MultiModel, assign_rows, nearest_centroid
from subtrack.subspace import init_subspace


class TestRmse:
    def test_all_zero(self):
        assert rmse([0, 0, 0]) == 0.0

    def test_hand_computed(self):
        assert rmse([3, -4]) == pytest.approx(math.sqrt(25 / 2))

    def test_single_element(self):
        assert rmse([-10]) == 10.0

    def test_empty(self):
        with pytest.raises(ValidationError):
            rmse([])


class TestScore:
    def test_zero_error(self):
        assert score([0]) == 0.0

    def test_late_by_ten(self):
        assert score([10]) == pytest.approx(math.e - 1, abs=1e-12)

    def test_early_by_thirteen(self):
        assert score([-13]) == pytest.approx(math.e - 1, abs=1e-12)

    def test_asymmetry(self):
        for e in (1, 5, 20, 100):
            assert score([e]) > score([-e])

    def test_additivity(self):
        a, b = [3, -5], [7, -1, 2]
        assert score(a + b) == pytest.approx(score(a) + score(b), rel=1e-14)

    def test_empty(self):
        with pytest.raises(ValidationError):
            score([])


SMALL_SYNTH = SynthConfig(
    n_units=12, noise_std=0.01, drift_rate=0.03, seed=5,
    min_cycles=80, max_cycles=120, min_test_cycles=25,
)

SMALL_CFG = RunConfig(
    mode="sst", healthy_cycles=20, tau2=20, seed=5
)


class TestPipeline:
    def test_synthetic_end_to_end_beats_trivial_floor(self):
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        report, pipe, curves = run_pipeline(train, test, truths, SMALL_CFG)
        assert len(report.rows) == len(test)
        assert report.rmse >= 0
        assert all(len(c) == len(t) for c, t in zip(curves, test))

    def test_sst_lr_mode_produces_regressor(self):
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        cfg = RunConfig(
            mode="sst-lr", healthy_cycles=20, tau2=20, seed=5
        )
        report, pipe, _ = run_pipeline(train, test, truths, cfg)
        assert pipe.regressor is not None
        assert report.rmse >= 0

    def test_sst_lr_curves_keep_the_sst_distances(self):
        # sst-lr replaces only sigma; the distances stay those of sst
        train, test, _, _ = generate_synthetic(SMALL_SYNTH)
        pipe = train_pipeline(train, replace(SMALL_CFG, mode="sst-lr"))
        sst = infer_curves(replace(pipe, config=SMALL_CFG), test)
        for got, want in zip(infer_curves(pipe, test), sst):
            assert got.raw_dist.tobytes() == want.raw_dist.tobytes()
            assert got.scaled_dist.tobytes() == want.scaled_dist.tobytes()
            assert not np.array_equal(got.sigma, want.sigma)

    def test_multiregime_pipeline_runs(self):
        synth = SynthConfig(
            n_units=10, n_regimes=2, noise_std=0.01, drift_rate=0.03, seed=6,
            min_cycles=80, max_cycles=120,
        )
        train, test, truths, _ = generate_synthetic(synth)
        cfg = RunConfig(
            n_regimes=2, healthy_cycles=20, tau2=20, seed=6
        )
        report, pipe, _ = run_pipeline(train, test, truths, cfg)
        assert isinstance(pipe.model, MultiModel)
        assert pipe.model.n_regimes == 2
        assert len(report.rows) == len(test)

    def test_deterministic_given_seed(self):
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        a, _, _ = run_pipeline(train, test, truths, SMALL_CFG)
        b, _, _ = run_pipeline(train, test, truths, SMALL_CFG)
        assert a.to_json() == b.to_json()

    def test_training_sigma_near_one_in_healthy_window(self):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        pipe = train_pipeline(train, SMALL_CFG)
        healthy_sigma = np.concatenate(
            [c.sigma[: SMALL_CFG.healthy_cycles] for c in pipe.train_curves]
        )
        assert healthy_sigma.mean() >= 0.9

    def test_training_sigma_low_at_failure(self):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        pipe = train_pipeline(train, SMALL_CFG)
        finals = np.array([c.sigma[-1] for c in pipe.train_curves])
        assert np.mean(finals <= 0.3) >= 0.9


class TestBatchTraining:
    @staticmethod
    def healthy_rows(train, pipe):
        """The normalized healthy rows and their regime labels, derived from
        the fitted centroids and normalizer as train_pipeline derives them."""
        cfg = pipe.config
        labels = [nearest_centroid(pipe.model.centroids, t.settings) for t in train]
        first = 0 if cfg.track_settings else N_SETTINGS
        rows = [
            pipe.normalizer.transform_rows(t.features, lab)[:, first:]
            for t, lab in zip(train, labels)
        ]
        return (
            np.vstack([r[: cfg.healthy_cycles] for r in rows]),
            np.concatenate([lab[: cfg.healthy_cycles] for lab in labels]),
        )

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_models_are_the_batch_init_of_each_regime(self, n_regimes):
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, _, _, _ = generate_synthetic(synth)
        cfg = RunConfig(n_regimes=n_regimes, healthy_cycles=20, tau2=20, seed=6)
        pipe = train_pipeline(train, cfg)
        healthy, labels = self.healthy_rows(train, pipe)
        assert pipe.model.n_regimes == n_regimes
        for k, got in enumerate(pipe.model.models):
            want = init_subspace(healthy[labels == k], cfg.subspace_dim, cfg.delta)
            for name in ("basis", "center", "spreads"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.delta == want.delta
        assert pipe.error_trace == [float(np.mean(assign_rows(pipe.model, healthy)[1]))]

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_inferring_the_training_fleet_reproduces_its_curves(self, n_regimes):
        # train and infer share one row analysis, so in sst mode the curves
        # inferred for the training fleet are the training curves, bit for bit
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, _, _, _ = generate_synthetic(synth)
        pipe = train_pipeline(train, RunConfig(n_regimes=n_regimes, tau2=20, seed=6))
        inferred = infer_curves(pipe, train)
        assert [c.unit_id for c in inferred] == [c.unit_id for c in pipe.train_curves]
        for got, want in zip(inferred, pipe.train_curves):
            for name in ("sigma", "raw_dist", "scaled_dist"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_smooths_each_training_series_at_most_once(self, monkeypatch):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        calls = []
        smooth = health.smooth

        def counting(series, factor):
            calls.append(np.shape(series))
            return smooth(series, factor)

        monkeypatch.setattr(health, "smooth", counting)
        train_pipeline(train, SMALL_CFG)
        assert 0 < len(calls) <= len(train)

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    def test_curves_and_scaler_equal_smoothing_each_series_alone(self, mode):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        cfg = RunConfig(mode=mode, healthy_cycles=20, tau2=20, seed=5)
        pipe = train_pipeline(train, cfg)
        raw = [c.raw_dist for c in pipe.train_curves]
        smoothed = [health.smooth(r, cfg.smoothing) for r in raw]
        scaler = health.fit_scaler(raw, smoothed, cfg.healthy_cycles)
        assert pipe.scaler == scaler
        for got, s in zip(pipe.train_curves, smoothed):
            want = health.build_curve(got.unit_id, got.raw_dist, s, scaler)
            for name in ("sigma", "raw_dist", "scaled_dist"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestReport:
    def test_row_and_metric_consistency(self):
        from subtrack.rul import CANDIDATE_DTYPE, RulEstimate

        ests = [
            RulEstimate(
                unit_id=u,
                estimate=float(10 * u),
                candidates=np.rec.array(
                    [(1, 1, float(10 * u), 1.0, False)], dtype=CANDIDATE_DTYPE
                ),
                sum_similarity=1.0,
            )
            for u in (1, 2)
        ]
        report = build_report(ests, [12, 18], SMALL_CFG, wall_time=0.5)
        assert [e.unit_id for e in report.estimates] == [1, 2]
        assert report.rows[0]["error"] == pytest.approx(-2.0)
        assert report.rows[1]["error"] == pytest.approx(2.0)
        assert report.rmse == pytest.approx(2.0)
        assert "wall_time" not in report.to_json()
        assert "wall time" in report.to_text()

    def test_truth_count_mismatch(self):
        with pytest.raises(ValidationError):
            build_report([], [1], SMALL_CFG, 0.0)

    def test_stage_tagged_errors(self):
        train, test, _, _ = generate_synthetic(SMALL_SYNTH)
        # wrong truth count fails in the evaluate stage
        with pytest.raises(ValidationError, match=r"\[evaluate\]"):
            run_pipeline(train, test, [1, 2], SMALL_CFG)


@settings(max_examples=50, deadline=None)
@given(
    errors=st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    k=st.floats(-5, 5),
)
def test_rmse_scales_linearly(errors, k):
    errors = np.array(errors)
    assert rmse(k * errors) == pytest.approx(abs(k) * rmse(errors), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(errors=st.lists(st.floats(-100, 100), min_size=2, max_size=20))
def test_rmse_permutation_invariant(errors):
    assert rmse(errors) == pytest.approx(rmse(list(reversed(errors))), rel=1e-12)
