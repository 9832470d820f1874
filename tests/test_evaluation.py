import math
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack import evaluation, health, multiscale
from subtrack.config import RunConfig
from subtrack.dataset import (
    N_SETTINGS,
    SynthConfig,
    TrajectorySet,
    generate_synthetic,
)
from subtrack.errors import NumericalError, ValidationError
from subtrack.evaluation import (
    build_report,
    estimate_fleet,
    infer_curves,
    rmse,
    run_pipeline,
    score,
    train_pipeline,
)
from subtrack.health import RAW_DIST, SCALED_DIST, SIGMA, predict_hi
from subtrack.multiscale import MultiModel, assign_rows, nearest_centroid
from subtrack.persist import load_pipeline, save_pipeline
from subtrack.rul import estimate_rul
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

    def test_overflow_raises(self):
        assert rmse([1e150]) == 1e150
        with pytest.raises(NumericalError, match=r"rmse overflows: the largest \|error\| is 1e\+200"):
            rmse([3, -1e200])


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

    def test_overflow_raises(self):
        # exp(e / 10) overflows past e ~ 7098 when late, e ~ 9228 when early
        assert math.isfinite(score([7000, -9000]))
        with pytest.raises(NumericalError, match="score overflows"):
            score([7200])
        with pytest.raises(NumericalError, match="score overflows"):
            score([-9300])


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
        report, pipe, _, curves = run_pipeline(train, test, truths, SMALL_CFG)
        assert len(report.rows) == len(test)
        assert report.rmse >= 0
        assert all(len(c) == len(t) for c, t in zip(curves, test))

    def test_sst_lr_mode_produces_regressor(self):
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        cfg = RunConfig(
            mode="sst-lr", healthy_cycles=20, tau2=20, seed=5
        )
        report, pipe, _, _ = run_pipeline(train, test, truths, cfg)
        assert pipe.regressor is not None
        assert report.rmse >= 0

    def test_sst_lr_curves_keep_the_sst_distances(self):
        # sst-lr replaces only sigma; the distances stay those of sst
        train, test, _, _ = generate_synthetic(SMALL_SYNTH)
        pipe, _ = train_pipeline(train, replace(SMALL_CFG, mode="sst-lr"))
        sst = infer_curves(replace(pipe, config=SMALL_CFG), test)
        for got, want in zip(infer_curves(pipe, test), sst):
            assert got[:, RAW_DIST].tobytes() == want[:, RAW_DIST].tobytes()
            assert got[:, SCALED_DIST].tobytes() == want[:, SCALED_DIST].tobytes()
            assert not np.array_equal(got[:, SIGMA], want[:, SIGMA])

    def test_multiregime_pipeline_runs(self):
        synth = SynthConfig(
            n_units=10, n_regimes=2, noise_std=0.01, drift_rate=0.03, seed=6,
            min_cycles=80, max_cycles=120,
        )
        train, test, truths, _ = generate_synthetic(synth)
        cfg = RunConfig(
            n_regimes=2, healthy_cycles=20, tau2=20, seed=6
        )
        report, pipe, _, _ = run_pipeline(train, test, truths, cfg)
        assert isinstance(pipe.model, MultiModel)
        assert pipe.model.n_regimes == 2
        assert len(report.rows) == len(test)

    def test_deterministic_given_seed(self):
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        a, *_ = run_pipeline(train, test, truths, SMALL_CFG)
        b, *_ = run_pipeline(train, test, truths, SMALL_CFG)
        assert a.to_json() == b.to_json()

    def test_estimate_fleet_repeats_bit_for_bit_without_candidate_records(self):
        train, test, _, _ = generate_synthetic(SMALL_SYNTH)
        pipe, _ = train_pipeline(train, SMALL_CFG)
        curves = infer_curves(pipe, test)
        a, b = (estimate_fleet(pipe, curves) for _ in range(2))
        assert [(e.estimate, e.sum_similarity, e.n_candidates) for e in a] == [
            (e.estimate, e.sum_similarity, e.n_candidates) for e in b
        ]
        assert all(e.n_candidates > 0 for e in a)

    def test_training_sigma_near_one_in_healthy_window(self):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        _, curves = train_pipeline(train, SMALL_CFG)
        healthy_sigma = np.concatenate([c[: SMALL_CFG.healthy_cycles, SIGMA] for c in curves])
        assert healthy_sigma.mean() >= 0.9

    def test_training_sigma_low_at_failure(self):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        _, curves = train_pipeline(train, SMALL_CFG)
        finals = np.array([c[-1, SIGMA] for c in curves])
        assert np.mean(finals <= 0.3) >= 0.9


class TestBatchTraining:
    @staticmethod
    def healthy_rows(train, pipe):
        """The normalized healthy rows and their regime labels, derived from
        the fitted centroids and normalizer as train_pipeline derives them."""
        cfg = pipe.config
        labels = [nearest_centroid(pipe.model.centroids, t[:, :N_SETTINGS]) for t in train]
        first = 0 if cfg.track_settings else N_SETTINGS
        rows = []
        for t, lab in zip(train, labels):
            feats = t.copy()  # the set's rows are read-only
            pipe.normalizer.transform_inplace(feats, lab)
            rows.append(feats[: cfg.healthy_cycles, first:])
        return (
            np.vstack(rows),
            np.concatenate([lab[: cfg.healthy_cycles] for lab in labels]),
        )

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_models_are_the_batch_init_of_each_regime(self, n_regimes, tmp_path):
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, _, _, _ = generate_synthetic(synth)
        cfg = RunConfig(n_regimes=n_regimes, healthy_cycles=20, tau2=20, seed=6)
        pipe, curves = train_pipeline(train, cfg)
        healthy, labels = self.healthy_rows(train, pipe)
        assert pipe.model.n_regimes == n_regimes
        for k, got in enumerate(pipe.model.models):
            want = init_subspace(healthy[labels == k], cfg.subspace_dim, cfg.delta)
            for name in ("basis", "center", "spreads"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.delta == want.delta
        # the saved error trace is the mean assigned distance of those rows
        save_pipeline(pipe, curves, tmp_path)
        mean_dist = float(np.mean(assign_rows(pipe.model, healthy)[1]))
        trace = (tmp_path / "error_trace.csv").read_text()
        assert trace == f"epoch,mean_dist\n0,{mean_dist!r}\n"

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_inferring_the_training_fleet_reproduces_its_curves(self, n_regimes):
        # train and infer share one row analysis, so in sst mode the curves
        # inferred for the training fleet are the training curves, bit for bit
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, _, _, _ = generate_synthetic(synth)
        pipe, curves = train_pipeline(train, RunConfig(n_regimes=n_regimes, tau2=20, seed=6))
        inferred = infer_curves(pipe, train)
        assert (inferred.unit_ids, inferred.bounds) == (curves.unit_ids, curves.bounds)
        assert inferred.matrix.tobytes() == curves.matrix.tobytes()

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
        # the distances are smoothed in both modes; sigma is the index of the
        # smoothed, scaled distance in sst mode, and the regressed index,
        # smoothed within its unit, in sst-lr mode
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        cfg = RunConfig(mode=mode, healthy_cycles=20, tau2=20, seed=5)
        regressed = []

        def recording(*args):
            regressed.append(predict_hi(*args))
            return regressed[-1]

        with mock.patch.object(health, "predict_hi", recording):
            pipe, curves = train_pipeline(train, cfg)
        raw = [c[:, RAW_DIST] for c in curves]
        smoothed = [health.smooth(r, cfg.smoothing) for r in raw]
        scaler = health.fit_scaler(
            np.concatenate(raw), np.concatenate(smoothed), curves.bounds, cfg.healthy_cycles
        )
        assert pipe.scaler == scaler
        assert len(regressed) == (mode == "sst-lr")
        ends = curves.bounds[1:-1]
        indexes = np.split(regressed[0], ends) if regressed else [None] * len(raw)
        for got, s, index in zip(curves, smoothed, indexes):
            scaled = health.scale(scaler, s)
            assert got[:, SCALED_DIST].tobytes() == scaled.tobytes()
            if mode == "sst":
                want = health.to_health_index(scaled)
            else:
                want = health.smooth(index, cfg.smoothing)
            assert got[:, SIGMA].tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_library_and_queries_are_one_index(self, n_regimes, mode):
        # matching compares like with like: the library rows are the training
        # sigmas, which a query of the training fleet reproduces, and
        # estimate_fleet matches each curve as given, with no further smoothing
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, test, _, _ = generate_synthetic(synth)
        cfg = RunConfig(mode=mode, n_regimes=n_regimes, tau2=20, seed=6)
        pipe, train_curves = train_pipeline(train, cfg)
        library = pipe.library
        rows = {u: i for i, u in enumerate(library.unit_ids.tolist())}
        assert sorted(rows) == sorted(train.unit_ids)
        inferred = infer_curves(pipe, train)
        assert inferred.unit_ids == train_curves.unit_ids
        for unit, got, want in zip(inferred.unit_ids, inferred, train_curves):
            assert got[:, SIGMA].tobytes() == want[:, SIGMA].tobytes()
            padded = library.padded[rows[unit]]
            assert padded[: len(got)].tobytes() == got[:, SIGMA].tobytes()
            assert not padded[len(got) :].any()
        curves = infer_curves(pipe, test)
        assert estimate_fleet(pipe, curves) == [
            estimate_rul(u, c[:, SIGMA], library, cfg) for u, c in zip(curves.unit_ids, curves)
        ]

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    def test_curve_tables_keep_each_column_contiguous(self, mode):
        # one unit's sigma is then a contiguous slice: its dot products in
        # matching round as those of a contiguous copy, so estimate_fleet on
        # the table gives estimate_rul's estimates on a C-contiguous copy of
        # each unit's sigma, bit for bit
        train, test, _, _ = generate_synthetic(SMALL_SYNTH)
        cfg = replace(SMALL_CFG, mode=mode)
        pipe, train_curves = train_pipeline(train, cfg)
        curves = infer_curves(pipe, test)
        for table in (train_curves, curves, run_pipeline(train, test, [1] * len(test), cfg)[3]):
            assert table.matrix.shape == (table.bounds[-1], len(health.CURVE_COLUMNS))
            for column in table.matrix.T:
                assert column.flags.c_contiguous
            assert not table.matrix.flags.writeable
        copies = [np.array(c[:, SIGMA], order="C") for c in curves]
        assert estimate_fleet(pipe, curves) == [
            estimate_rul(u, s, pipe.library, cfg) for u, s in zip(curves.unit_ids, copies)
        ]


@pytest.mark.parametrize("n_regimes", [1, 6])
def test_both_modes_hold_the_age_only_baseline(n_regimes):
    # The age-only predictor is the uniform mean of L - n - tau over every
    # full-overlap candidate: the pipeline with beta = 1e300, where every
    # similarity is exactly 1. sst-lr, which regresses the whole tracked row,
    # measured 0.895x (K=1) and 0.841x (K=6) of it here, 0.949x at worst over
    # generator seeds 0-3. A library of the distance index, smoothed twice,
    # lost to it by 1.4-7.6% (generator seeds 0-3).
    train, test, truths, _ = generate_synthetic(
        SynthConfig(n_units=60, n_regimes=n_regimes)
    )
    cfg = RunConfig(n_regimes=n_regimes)
    rmses = {
        mode: run_pipeline(train, test, truths, replace(cfg, mode=mode))[0].rmse
        for mode in ("sst", "sst-lr")
    }
    age_only = run_pipeline(train, test, truths, replace(cfg, beta=1e300))[0].rmse
    assert rmses["sst-lr"] <= 0.96 * age_only
    assert rmses["sst"] <= 0.97 * age_only


def mismatches(a, b, path="pipe"):
    """Where a and b differ: dataclasses field by field, lists item by item,
    arrays by dtype, shape and bytes, anything else by type and ==."""
    if is_dataclass(a) and type(a) is type(b):
        return [
            m for f in fields(a)
            for m in mismatches(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
        ]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for i, ab in enumerate(zip(a, b)) for m in mismatches(*ab, f"{path}[{i}]")]
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        same = (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        same = type(a) is type(b) and a == b
    return [] if same else [path]


@pytest.mark.parametrize("mode, n_regimes", [("sst", 1), ("sst-lr", 2)])
def test_a_loaded_pipeline_equals_the_trained_one(tmp_path, mode, n_regimes):
    # a model directory holds the whole pipeline: nothing is left out of the
    # saved files or filled in with a placeholder when they are read back
    synth = SynthConfig(
        n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    )
    train, _, _, _ = generate_synthetic(synth)
    pipe, curves = train_pipeline(
        train, RunConfig(mode=mode, n_regimes=n_regimes, tau2=20, seed=6)
    )
    save_pipeline(pipe, curves, tmp_path)
    loaded = load_pipeline(tmp_path)
    assert (loaded.regressor is None) == (mode == "sst")
    assert mismatches(loaded, pipe) == []


def scored(pipe, tset):
    """(curves, estimates, per-row model labels) of one infer_curves and
    estimate_fleet call; the labels are recorded from multiscale.assign_rows,
    where evaluation calls it."""
    labels = []

    def recording(model, rows):
        out = assign_rows(model, rows)
        labels.append(out[0])
        return out

    with mock.patch.object(multiscale, "assign_rows", recording):
        curves = infer_curves(pipe, tset)
    return curves, estimate_fleet(pipe, curves, skip_unmatched=True), np.concatenate(labels)


def assert_units_scored_alone_alike(pipe, tset):
    """Each unit of tset scored alone gets its fleet curve and estimate to
    a relative 1e-12, and exactly its model labels, candidate count and
    empty row."""
    curves, estimates, labels = scored(pipe, tset)
    assert curves.unit_ids == tset.unit_ids
    offset = 0
    for unit, traj, curve, est in zip(tset.unit_ids, tset, curves, estimates):
        alone, [alone_est], alone_labels = scored(pipe, TrajectorySet.stack([unit], [traj]))
        assert alone.unit_ids == [unit]
        np.testing.assert_array_equal(alone_labels, labels[offset : offset + len(traj)])
        offset += len(traj)
        np.testing.assert_allclose(alone.matrix, curve, rtol=1e-12, atol=0)
        assert (alone_est is None) == (est is None)
        if est is not None:
            assert alone_est.n_candidates == est.n_candidates
            assert alone_est.similarity_underflow == est.similarity_underflow
            assert alone_est.estimate == pytest.approx(est.estimate, rel=1e-12, abs=0)
            assert alone_est.sum_similarity == pytest.approx(
                est.sum_similarity, rel=1e-12, abs=0
            )
    assert offset == len(labels)


def fleet_with_unmatched_unit(n_regimes, mode):
    """A trained pipeline and a test fleet whose last unit, a copy of the
    longest training unit, has no full-overlap candidate."""
    synth = SynthConfig(
        n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    )
    train, test, _, _ = generate_synthetic(synth)
    pipe, _ = train_pipeline(
        train, RunConfig(mode=mode, n_regimes=n_regimes, tau2=20, seed=6)
    )
    longest = max(train, key=len)
    return pipe, TrajectorySet.stack([*test.unit_ids, 1000], [*test, longest])


class TestFleetPath:
    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_unit_results_do_not_depend_on_fleet_mates(self, n_regimes, mode):
        pipe, tset = fleet_with_unmatched_unit(n_regimes, mode)
        assert_units_scored_alone_alike(pipe, tset)
        assert scored(pipe, tset)[1][-1] is None

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_peak_memory_is_a_bounded_multiple_of_the_fleet(self, n_regimes):
        # the set's matrix is the only fleet-sized array: it is read, never
        # copied, and each block is normalized in a block-sized buffer. Train
        # peaks at about 1.1x (the temporary the normalizer's std takes),
        # infer at about 0.7x (the per-row results and curves); a copy of
        # the fleet, a fleet-size mean[labels] in the normalization, or one
        # distance pass over the whole fleet, adds a multiple
        synth = SynthConfig(
            n_units=40, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=3, min_cycles=100, max_cycles=200,
        )
        train, test, _, _ = generate_synthetic(synth)
        cfg = RunConfig(mode="sst-lr", n_regimes=n_regimes, tau2=20, seed=3)
        with mock.patch.object(evaluation, "ROW_BLOCK", 256):
            pipe, _ = train_pipeline(train, cfg)  # warm: first-call allocations
            train_peak = traced_peak(lambda: train_pipeline(train, cfg), train)
            infer_peak = traced_peak(lambda: infer_curves(pipe, test), test)
        assert sum(len(t) for t in test) > 10 * 256
        assert train_peak <= 1.4
        assert infer_peak <= 1.0


@pytest.mark.parametrize("mode", ["sst", "sst-lr"])
def test_regime_numbering_changes_no_output(mode):
    # the seeding decides which regime is number 0; a retrain that numbers
    # them otherwise permutes the model's tables and nothing it outputs
    train, test, _, _ = generate_synthetic(SynthConfig(
        n_units=8, n_regimes=3, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    ))
    cfg = RunConfig(mode=mode, n_regimes=3, tau2=20, seed=6)
    cluster, perm = multiscale.cluster_regimes, np.array([2, 0, 1])

    def renumbered(*args):
        centroids, labels = cluster(*args)
        return centroids[perm], np.argsort(perm)[labels]

    def outputs():
        pipe, curves = train_pipeline(train, cfg)
        lib = pipe.library
        return pipe, [curves.matrix.tobytes()] + [
            a.tobytes() for a in (lib.unit_ids, lib.lengths, lib.padded, lib.energy)
        ] + [infer_curves(pipe, test).matrix[:, SIGMA].tobytes()]

    pipe, expected = outputs()
    with mock.patch.object(multiscale, "cluster_regimes", renumbered):
        renumbered_pipe, got = outputs()
    assert got == expected
    np.testing.assert_array_equal(renumbered_pipe.model.centroids, pipe.model.centroids[perm])


@pytest.mark.parametrize("mode", ["sst", "sst-lr"])
@pytest.mark.parametrize("n_regimes", [1, 2])
def test_pipeline_leaves_the_fleet_matrix_unchanged(n_regimes, mode):
    synth = SynthConfig(
        n_units=8, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    )
    train, test, truths, _ = generate_synthetic(synth)
    cfg = RunConfig(mode=mode, n_regimes=n_regimes, tau2=20, seed=6)
    before = [(t.matrix.tobytes(), t.bounds) for t in (train, test)]
    with mock.patch.object(evaluation, "ROW_BLOCK", 100):
        pipe, _ = train_pipeline(train, cfg)
        infer_curves(pipe, test)
        run_pipeline(train, test, truths, cfg)
    assert [(t.matrix.tobytes(), t.bounds) for t in (train, test)] == before
    assert not train.matrix.flags.writeable and not test.matrix.flags.writeable


def traced_peak(run, tset) -> float:
    """Peak of the memory that run allocates, in multiples of the float64
    bytes of tset's 24 features."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (sum(len(t) for t in tset) * 24 * 8)


@pytest.fixture(scope="module")
def small_sst_lr():
    synth = SynthConfig(
        n_units=8, n_regimes=2, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    )
    train, test, _, _ = generate_synthetic(synth)
    pipe, _ = train_pipeline(train, RunConfig(mode="sst-lr", n_regimes=2, tau2=20, seed=6))
    return pipe, test


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_units_straddling_row_blocks_score_as_alone(small_sst_lr, data):
    pipe, test = small_sst_lr
    picks = data.draw(
        st.lists(st.sampled_from(range(len(test))), min_size=1, max_size=4, unique=True)
    )
    units = list(test)
    tset = TrajectorySet.stack([test.unit_ids[i] for i in picks], [units[i] for i in picks])
    block = data.draw(st.integers(7, 120))
    bounds = np.cumsum([0] + [len(t) for t in tset])
    assume(any(a // block != (b - 1) // block for a, b in zip(bounds, bounds[1:])))
    with mock.patch.object(evaluation, "ROW_BLOCK", block):
        assert_units_scored_alone_alike(pipe, tset)


class TestReport:
    def test_row_and_metric_consistency(self):
        from subtrack.rul import RulEstimate

        ests = [
            RulEstimate(
                unit_id=u, estimate=float(10 * u), sum_similarity=1.0, n_candidates=1
            )
            for u in (1, 2)
        ]
        report = build_report(ests, [12, 18], SMALL_CFG, wall_time=0.5)
        assert [e.unit_id for e in report.estimates] == [1, 2]
        assert report.truths == [12, 18]
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
