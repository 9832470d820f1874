import math
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtrack import dataset, evaluation, fit, health, multiscale, synthetic
from subtrack.cli import main
from subtrack.config import RunConfig
from subtrack.dataset import N_SETTINGS, TrajectorySet
from subtrack.errors import NumericalError, ValidationError
from subtrack.evaluation import build_report, rmse, run_pipeline, score
from subtrack.fit import fit_spectrum, spectrum, train_pipeline
from subtrack.health import RAW_DIST, SCALED_DIST, SIGMA, predict_hi
from subtrack.multiscale import MultiModel, assign_rows, nearest_centroid
from subtrack.persist import load_pipeline, save_pipeline
from subtrack.pipeline import estimate_fleet, infer_curves
from subtrack.rul import estimate_rul
from subtrack.synthetic import SynthConfig, generate_synthetic

from test_health import reference_smooth


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
    mode="sst", healthy_cycles=20, tau2=20
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
            mode="sst-lr", healthy_cycles=20, tau2=20
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
        cfg = RunConfig(healthy_cycles=20, tau2=20)
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
        rows = []
        for t, lab in zip(train, labels):
            sensors = t[:, N_SETTINGS:].copy()  # the set's rows are read-only
            pipe.normalizer.transform_inplace(sensors, lab)
            rows.append(sensors[: cfg.healthy_cycles])
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
        cfg = RunConfig(healthy_cycles=20, tau2=20)
        pipe, curves = train_pipeline(train, cfg)
        healthy, labels = self.healthy_rows(train, pipe)
        assert pipe.model.n_regimes == n_regimes
        for k, got in enumerate(pipe.model.models):
            # at the generator's d, which each regime's healthy spectrum reads
            want = fit_spectrum(*spectrum(healthy[labels == k]), synth.subspace_dim)
            for name in ("basis", "center", "spreads"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # the mean assigned distance of those rows is that of the exported
        # raw distances over the healthy cycles: the same elements, in order
        save_pipeline(pipe, curves, tmp_path)
        table = np.load(tmp_path / "train_curves.npy", allow_pickle=False)
        exported = table[table[:, 1] <= cfg.healthy_cycles, 2 + RAW_DIST]
        routed = assign_rows(pipe.model, healthy, cfg.delta)[1]
        assert float(np.mean(exported)) == float(np.mean(routed))

    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_inferring_the_training_fleet_reproduces_its_curves(self, n_regimes):
        # train and infer share one row analysis, so in sst mode the curves
        # inferred for the training fleet are the training curves, bit for bit
        synth = SynthConfig(
            n_units=10, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=6, min_cycles=80, max_cycles=120,
        )
        train, _, _, _ = generate_synthetic(synth)
        pipe, curves = train_pipeline(train, RunConfig(tau2=20))
        inferred = infer_curves(pipe, train)
        assert (inferred.unit_ids, inferred.bounds) == (curves.unit_ids, curves.bounds)
        assert inferred.matrix.tobytes() == curves.matrix.tobytes()

    def test_smooths_each_training_series_at_most_once(self, monkeypatch):
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        calls = []
        smooth_units = health.smooth_units

        def counting(values, bounds, factor, out=None):
            calls.append((len(values), len(bounds)))
            return smooth_units(values, bounds, factor, out=out)

        monkeypatch.setattr(health, "smooth_units", counting)
        # one fleet-wide call per smoothed series: the distances, and in
        # sst-lr mode the regressed index
        for mode, n_calls in [("sst", 1), ("sst-lr", 2)]:
            calls.clear()
            train_pipeline(train, replace(SMALL_CFG, mode=mode))
            assert calls == [(len(train.matrix), len(train) + 1)] * n_calls

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    def test_curves_and_scaler_equal_smoothing_each_series_alone(self, mode):
        # the distances are smoothed in both modes; sigma is the index of the
        # smoothed, scaled distance in sst mode, and the regressed index,
        # smoothed within its unit, in sst-lr mode
        train, _, _, _ = generate_synthetic(SMALL_SYNTH)
        cfg = RunConfig(mode=mode, healthy_cycles=20, tau2=20)
        regressed = []

        def recording(*args):
            regressed.append(predict_hi(*args))
            return regressed[-1]

        with mock.patch.object(health, "predict_hi", recording):
            pipe, curves = train_pipeline(train, cfg)
        raw = [c[:, RAW_DIST] for c in curves]
        smoothed = [np.array(reference_smooth(r, cfg.smoothing)) for r in raw]
        scaler = fit.fit_scaler(
            np.concatenate(raw), np.concatenate(smoothed), curves.bounds, cfg.healthy_cycles
        )
        assert pipe.scaler == scaler
        # one predict pass over the fleet's row blocks, in sst-lr mode only
        assert sum(map(len, regressed)) == len(train.matrix) * (mode == "sst-lr")
        ends = curves.bounds[1:-1]
        indexes = np.split(np.concatenate(regressed), ends) if regressed else [None] * len(raw)
        for got, s, index in zip(curves, smoothed, indexes):
            scaled = health.scale(scaler, s)
            assert got[:, SCALED_DIST].tobytes() == scaled.tobytes()
            if mode == "sst":
                want = health.to_health_index(scaled)
            else:
                want = np.array(reference_smooth(index, cfg.smoothing))
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
        cfg = RunConfig(mode=mode, tau2=20)
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


def age_only_rmse(train, test, truths, cfg):
    """rmse of the age-only predictor: each test unit's estimate is the mean
    of L - n - tau over the full-overlap (training length L, lag tau) pairs
    that matching scores, read from unit lengths alone."""
    ruls = np.diff(train.bounds)[:, None] - np.arange(cfg.tau1, cfg.tau2 + 1)
    estimates = [(ruls - n)[ruls >= n].mean() for n in np.diff(test.bounds)]
    return rmse(np.subtract(estimates, truths))


@pytest.mark.parametrize("n_regimes", [1, 6])
def test_both_modes_hold_the_age_only_baseline(n_regimes):
    # With each unit's bandwidth its smallest candidate d2, sst-lr measured
    # 0.652x (K=1) and 0.683x (K=6) of the age-only rmse here, sst 0.664x and
    # 0.716x; 0.798x at worst over generator seeds 0-3 (sst, K=6, seed 3).
    # A library of the distance index, smoothed twice, lost to the age-only
    # predictor by 1.4-7.6% (seeds 0-3, on the generator's earlier per-row
    # draws).
    train, test, truths, _ = generate_synthetic(
        SynthConfig(n_units=60, n_regimes=n_regimes)
    )
    cfg = RunConfig()
    rmses = {
        mode: run_pipeline(train, test, truths, replace(cfg, mode=mode))[0].rmse
        for mode in ("sst", "sst-lr")
    }
    age_only = age_only_rmse(train, test, truths, cfg)
    assert rmses["sst-lr"] <= 0.96 * age_only
    assert rmses["sst"] <= 0.97 * age_only


def picked_dim(train, n_regimes):
    """The subspace dimension train_pipeline reads from a fleet's pooled
    healthy spectrum: every member's."""
    pipe, _ = train_pipeline(train, RunConfig())
    dims = {m.subspace_dim for m in pipe.model.models}
    assert len(dims) == 1
    return dims.pop()


@pytest.mark.parametrize("noise_std", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("n_regimes", [1, 6])
def test_the_picked_dimension_is_never_below_the_generators(n_regimes, noise_std):
    # Measured: exact in all 40 cells at noise 0.05 and 0.2, so there the
    # gate asks for exact. d is read once from the regimes' mean spectrum:
    # read per regime and the largest taken, one regime's eigenvalue ratio
    # of 2.99 missed DOMINANT_GAP at 0.2 (K=6, d = 2, seed 0) and lifted
    # every member to 4. At 0.5 no ratio reaches DOMINANT_GAP in some
    # cells, and the fallback reads up to 7 above the truth (exact in 15 of
    # 20 cells at K=1, 7 of 20 at K=6); the largest ratio alone read 1 for
    # d = 2 and d = 3 (K=1, seed 2). At noise 1.0 the gap has closed: the
    # largest ratio alone read below the truth in 9 of the 16 K=1 cells with
    # d >= 2 (2 for d = 3, seed 0).
    exact = noise_std <= 0.2
    off = []
    for d in range(1, 6):
        for seed in range(4):
            train = generate_synthetic(SynthConfig(
                n_units=60, n_regimes=n_regimes, seed=seed, subspace_dim=d, noise_std=noise_std
            ))[0]
            picked = picked_dim(train, n_regimes)
            if picked < d or (exact and picked != d):
                off.append((d, seed, picked))
    assert off == []


def test_masked_constant_sensors_leave_the_picked_dimension():
    # 7 of the 21 sensors constant, as in CMAPSS: they normalize to exact
    # zeros, a null space below the spectrum's floor
    train = generate_synthetic(SynthConfig(n_units=20, seed=2))[0]
    matrix = train.matrix.copy()
    matrix[:, N_SETTINGS : N_SETTINGS + 7] = 5.0
    constant = TrajectorySet(matrix, train.unit_ids, train.bounds)
    assert train_pipeline(constant, RunConfig())[0].normalizer.mask[0, :7].all()
    assert picked_dim(constant, 1) == picked_dim(train, 1) == 3


@pytest.mark.parametrize("n_regimes", [1, 6])
def test_a_noise_free_fleet_reads_its_rank(n_regimes):
    # no gap among the 3 eigenvalues above the floor: the fallback reads all
    train = generate_synthetic(SynthConfig(n_units=20, n_regimes=n_regimes, noise_std=0.0))[0]
    assert picked_dim(train, n_regimes) == 3


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
        train, RunConfig(mode=mode, tau2=20)
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

    def recording(model, rows, delta):
        out = assign_rows(model, rows, delta)
        labels.append(out[0])
        return out

    with mock.patch.object(multiscale, "assign_rows", recording):
        curves = infer_curves(pipe, tset)
    return curves, estimate_fleet(pipe, curves, skip_unmatched=True), np.concatenate(labels)


def assert_units_scored_alone_alike(pipe, tset):
    """Each unit of tset scored alone gets its fleet curve and estimate to
    a relative 1e-12, its weight sum to a relative 1e-10, and exactly its
    model labels, candidate count and empty row.

    The sum's bound is wider because each weight is exp(-d2 / b), with b the
    unit's smallest d2: 7e-6 to 5e-5 on these fleets. A curve that differs
    in the 13th digit (another block split of its rows) moves every d2 / b,
    and so the sum, by about 1e-11: 2.8e-11 at worst over every pick of up
    to 3 units, and 400 picks of 4, at each block size 7-120. The estimate,
    a ratio, cancels the common part of that shift (2.2e-13 at worst)."""
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
            assert alone_est.estimate == pytest.approx(est.estimate, rel=1e-12, abs=0)
            assert alone_est.sum_similarity == pytest.approx(
                est.sum_similarity, rel=1e-10, abs=0
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
        train, RunConfig(mode=mode, tau2=20)
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

    @pytest.mark.parametrize("n_regimes", [1, 2, 6])
    def test_peak_memory_is_a_bounded_multiple_of_the_fleet(self, n_regimes):
        # the set's matrix is the only fleet-sized array: it is read, never
        # copied, and every pass over it (clustering, the normalizer fit,
        # the normalized blocks and routing) holds block-sized temporaries
        # beside its per-row outputs: the curve table and two one-byte
        # labels. Train peaks at 0.30x-0.31x, at K=1 in the healthy-window
        # spectrum (each healthy row copied once; twice, 0.42x) and at K=2
        # and 6 in the fleet passes, and infer at
        # 0.34x-0.35x, in routing's block temporaries beside the curves;
        # eight-byte labels lift infer to 0.41x-0.42x, a padded smoothing
        # stack to 0.44x-0.47x. A copy of the fleet or of
        # a regime's rows, a fleet-size mean[labels] in the normalization,
        # or one pass over the whole fleet at once, adds a multiple
        synth = SynthConfig(
            n_units=40, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=3, min_cycles=100, max_cycles=200,
        )
        train, test, _, _ = generate_synthetic(synth)
        cfg = RunConfig(mode="sst-lr", tau2=20)
        with mock.patch.object(dataset, "ROW_BLOCK", 256):
            pipe, _ = train_pipeline(train, cfg)  # warm: first-call allocations
            train_peak = traced_peak(lambda: train_pipeline(train, cfg), train)
            infer_peak = traced_peak(lambda: infer_curves(pipe, test), test)
        assert sum(len(t) for t in test) > 10 * 256
        assert train_peak <= TRAIN_SHARE
        assert infer_peak <= INFER_SHARE

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    @pytest.mark.parametrize("n_regimes", [1, 2])
    def test_benchmark_holds_one_fleet_table_at_a_time(self, tmp_path, n_regimes, mode):
        # run_benchmark frees the training table before it parses the test
        # file, so its peak is the training table (26 columns) and
        # train_pipeline's share: measured 1.35x-1.40x the features' bytes,
        # the table 1.08x. Holding the test table, 0.6x-0.7x the training
        # one here, through training peaked at 2.1x-2.2x
        train, test, truths, _ = generate_synthetic(SynthConfig(
            n_units=40, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
            seed=3, min_cycles=100, max_cycles=200,
        ))
        paths = [tmp_path / name for name in ("train.txt", "test.txt", "rul.txt")]
        synthetic.save_cmapss(train, paths[0])
        synthetic.save_cmapss(test, paths[1])
        paths[2].write_text("".join(f"{t}\n" for t in truths))
        cfg = RunConfig(mode=mode, tau2=20)
        with mock.patch.object(dataset, "ROW_BLOCK", 256):
            evaluation.run_benchmark(*paths, cfg)  # warm: first-call allocations
            peak = traced_peak(lambda: evaluation.run_benchmark(*paths, cfg), train)
        table = dataset.N_COLUMNS / (dataset.N_COLUMNS - 2)  # in the features' bytes
        assert peak <= table + TRAIN_SHARE

    @pytest.mark.parametrize("mode", ["sst", "sst-lr"])
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_training_table_is_freed_before_the_library_is_prepared(
        self, tmp_path, monkeypatch, command, mode
    ):
        # the train command and run_benchmark drop the parsed training set
        # after its last row pass (the distance pass in sst mode, the
        # predict pass in sst-lr mode), so the library, the curve exports
        # and the model files are made beside the curve table alone
        train, test, truths, _ = generate_synthetic(SMALL_SYNTH)
        paths = [tmp_path / name for name in ("train.txt", "test.txt", "rul.txt")]
        synthetic.save_cmapss(train, paths[0])
        synthetic.save_cmapss(test, paths[1])
        paths[2].write_text("".join(f"{t}\n" for t in truths))
        load, prepare = dataset.load_cmapss, fit.prepare_library
        parsed, alive = [], []

        def loading(path):
            tset = load(path)
            if not parsed:  # the training file is parsed first
                table = tset.matrix
                while isinstance(table.base, np.ndarray):  # the table numpy parsed
                    table = table.base
                parsed.extend([weakref.ref(tset), weakref.ref(table)])
            return tset

        def preparing(curves):
            alive.append([ref() is not None for ref in parsed])
            return prepare(curves)

        monkeypatch.setattr(dataset, "load_cmapss", loading)
        monkeypatch.setattr(fit, "prepare_library", preparing)
        if command == "train":
            assert main(["train", "--train", str(paths[0]), "--out", str(tmp_path / "model"),
                         "--mode", mode, "--tau2", "20"]) == 0
        else:
            evaluation.run_benchmark(*paths, RunConfig(mode=mode, tau2=20))
        assert alive == [[False, False]]


@pytest.mark.parametrize("mode", ["sst", "sst-lr"])
def test_regime_numbering_changes_no_output(mode):
    # the seeding decides which regime is number 0; a retrain that numbers
    # them otherwise permutes the model's tables and nothing it outputs
    train, test, _, _ = generate_synthetic(SynthConfig(
        n_units=8, n_regimes=3, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    ))
    cfg = RunConfig(mode=mode, tau2=20)
    cluster, perm = fit.cluster_regimes, np.array([2, 0, 1])

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
    with mock.patch.object(fit, "cluster_regimes", renumbered):
        renumbered_pipe, got = outputs()
    assert got == expected
    np.testing.assert_array_equal(renumbered_pipe.model.centroids, pipe.model.centroids[perm])


def jittered(tset, scale):
    """tset with a non-constant jitter of the given scale on its settings."""
    matrix = tset.matrix.copy()
    rows = np.arange(len(matrix))[:, None]
    matrix[:, :N_SETTINGS] += scale * np.sin(rows * np.arange(1.0, N_SETTINGS + 1))
    return TrajectorySet(matrix, tset.unit_ids, tset.bounds)


@pytest.mark.parametrize("mode", ["sst", "sst-lr"])
@pytest.mark.parametrize("n_regimes, scale", [(1, 1e-3), (1, 10.0), (6, 1e-3)])
def test_settings_move_only_the_regime_labels(mode, n_regimes, scale):
    # the settings pick each row's regime and reach nothing else: at K=1 any
    # jitter on them, and at K=6 one too small to relabel a row, leaves every
    # output and fitted table but the centroids as they were, bit for bit
    train, test, truths, _ = generate_synthetic(SynthConfig(
        n_units=20, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    ))
    cfg = RunConfig(mode=mode, tau2=20)
    fleets = [(train, test), (jittered(train, scale), jittered(test, scale))]
    runs = [run_pipeline(*fleet, truths, cfg) for fleet in fleets]
    labels = [
        [nearest_centroid(pipe.model.centroids, t.matrix[:, :N_SETTINGS]).tolist() for t in fleet]
        for fleet, (_, pipe, _, _) in zip(fleets, runs)
    ]
    assert labels[1] == labels[0]
    (report, pipe, *curves), (j_report, j_pipe, *j_curves) = runs
    assert mismatches(j_pipe, pipe) == ["pipe.model.centroids"]
    assert mismatches(j_report.estimates, report.estimates) == []
    assert j_report.to_json() == report.to_json()
    assert [c.matrix.tobytes() for c in j_curves] == [c.matrix.tobytes() for c in curves]


@pytest.mark.parametrize("mode", ["sst", "sst-lr"])
@pytest.mark.parametrize("n_regimes", [1, 2])
def test_pipeline_leaves_the_fleet_matrix_unchanged(n_regimes, mode):
    synth = SynthConfig(
        n_units=8, n_regimes=n_regimes, noise_std=0.01, drift_rate=0.03,
        seed=6, min_cycles=80, max_cycles=120,
    )
    train, test, truths, _ = generate_synthetic(synth)
    cfg = RunConfig(mode=mode, tau2=20)
    before = [(t.matrix.tobytes(), t.bounds) for t in (train, test)]
    with mock.patch.object(dataset, "ROW_BLOCK", 100):
        pipe, _ = train_pipeline(train, cfg)
        infer_curves(pipe, test)
        run_pipeline(train, test, truths, cfg)
    assert [(t.matrix.tobytes(), t.bounds) for t in (train, test)] == before
    assert not train.matrix.flags.writeable and not test.matrix.flags.writeable


# the tracemalloc peaks of train_pipeline and infer_curves, in multiples of
# the fleet's float64 feature bytes, measured at K=1, 2 and 6 with blocks of
# 256 rows, plus a 10% margin: train 0.30x-0.31x, infer 0.34x-0.35x
TRAIN_SHARE = 0.34
INFER_SHARE = 0.38


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
    pipe, _ = train_pipeline(train, RunConfig(mode="sst-lr", tau2=20))
    return pipe, test


@pytest.mark.parametrize("width", [N_SETTINGS - 1, N_SETTINGS])
def test_train_and_infer_refuse_a_set_without_sensor_columns(small_sst_lr, width):
    tset = TrajectorySet(np.zeros((30, width)), [1], [0, 30])
    message = (
        f"features must be a 2-d array with {N_SETTINGS} settings columns "
        "and at least one sensor column"
    )
    with pytest.raises(ValidationError) as infer_error:
        infer_curves(small_sst_lr[0], tset)
    with pytest.raises(ValidationError) as train_error:
        train_pipeline(tset, RunConfig())
    assert str(infer_error.value) == str(train_error.value) == message


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
    with mock.patch.object(dataset, "ROW_BLOCK", block):
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
