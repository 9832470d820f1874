import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtrack import dataset
from subtrack.config import RunConfig
from subtrack.dataset import N_SENSORS, N_SETTINGS, TrajectorySet, load_cmapss, load_rul_targets
from subtrack.errors import DataFormatError, NumericalError, ValidationError
from subtrack.fit import cluster_regimes, fit_normalizer, train_pipeline
from subtrack.subspace import SubspaceModel, mahalanobis_rows
from subtrack.synthetic import SynthConfig, generate_synthetic, save_cmapss


def write_rows(path, rows):
    path.write_text("".join(" ".join(str(v) for v in row) + "\n" for row in rows))


def make_row(unit, cycle, value=0.0):
    return [unit, cycle] + [value + i for i in range(24)]


class TestLoadCmapss:
    def test_single_unit_three_rows(self, tmp_path):
        f = tmp_path / "train_tiny.txt"
        write_rows(f, [make_row(1, 1), make_row(1, 2), make_row(1, 3)])
        tset = load_cmapss(f)
        assert len(tset) == 1
        rows = next(iter(tset))
        assert len(rows) == 3
        assert rows[:, :N_SETTINGS].shape == (3, N_SETTINGS)
        assert rows[:, N_SETTINGS:].shape == (3, N_SENSORS)

    def test_wrong_field_count_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        write_rows(f, [make_row(1, 1), make_row(1, 2)[:-1]])
        with pytest.raises(DataFormatError, match=":2:"):
            load_cmapss(f)

    def test_non_numeric_field(self, tmp_path):
        f = tmp_path / "bad.txt"
        row = make_row(1, 1)
        row[5] = "oops"
        write_rows(f, [row])
        with pytest.raises(DataFormatError, match=":1:"):
            load_cmapss(f)

    @pytest.mark.parametrize(
        "column,token,message",
        [(0, "nan", "non-numeric"), (1, "inf", "non-numeric"),
         (4, "inf", "non-finite"), (25, "nan", "non-finite"),
         (25, "-inf", "non-finite")],
    )
    def test_non_finite_value_reports_line(self, tmp_path, column, token, message):
        f = tmp_path / "bad.txt"
        row = make_row(2, 2)
        row[column] = token
        write_rows(f, [make_row(1, 1), make_row(2, 1), row, make_row(2, 3)])
        with pytest.raises(DataFormatError, match=f":3: {message}"):
            load_cmapss(f)

    def test_non_contiguous_cycles_names_unit(self, tmp_path):
        f = tmp_path / "bad.txt"
        write_rows(f, [make_row(7, 1), make_row(7, 3)])
        with pytest.raises(ValidationError, match="unit 7"):
            load_cmapss(f)

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            np.hstack([
                rng.standard_normal((5, N_SETTINGS)),
                rng.standard_normal((5, N_SENSORS)) * 100,
            ])
            for _ in (1, 2)
        ]
        tset = TrajectorySet.stack([1, 2], rows)
        f = tmp_path / "rt.txt"
        save_cmapss(tset, f)
        back = load_cmapss(f)
        assert back.unit_ids == [1, 2]
        for a, b in zip(tset, back):
            np.testing.assert_array_equal(a[:, :N_SETTINGS], b[:, :N_SETTINGS])
            np.testing.assert_array_equal(a[:, N_SETTINGS:], b[:, N_SETTINGS:])

    def test_writes_the_bytes_of_the_per_value_writer(self, tmp_path):
        def per_value_writer(tset, path):
            # save_cmapss as it was: repr(float(v)) for each value of each row
            with open(path, "w") as fh:
                for unit, feats in zip(tset.unit_ids, tset):
                    for i in range(len(feats)):
                        vals = " ".join(repr(float(v)) for v in feats[i])
                        fh.write(f"{unit} {i + 1} {vals}\n")

        train, _, _, _ = generate_synthetic(
            SynthConfig(n_units=3, n_regimes=2, seed=4, min_cycles=20, max_cycles=30)
        )
        odd = np.array([0.1, 1 / 3, 5e-324, -0.0, 1e300, -2.5, 2.0**-1074 * 3, 1e16])
        extra = np.resize(odd, (5, 24))
        for tset in (train, TrajectorySet.stack([-7, *train.unit_ids], [extra, *train])):
            save_cmapss(tset, tmp_path / "new.txt")
            per_value_writer(tset, tmp_path / "old.txt")
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def assert_views_of_one_matrix(tset):
    """tset's rows are one read-only float64 matrix in unit order, and every
    unit's rows, with their settings and sensors, are a view of it."""
    m = tset.matrix
    assert m.dtype == np.float64 and not m.flags.writeable
    assert tset.bounds == [0, *np.cumsum([len(t) for t in tset]).tolist()]
    for t, a, b in zip(tset, tset.bounds, tset.bounds[1:]):
        for part in (t, t[:, :N_SETTINGS], t[:, N_SETTINGS:]):
            assert np.shares_memory(part, m)
            assert not part.flags.writeable
        assert t.tobytes() == m[a:b].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        next(iter(tset))[0, 0] = 1.0


class TestOneMatrix:
    def test_loaded_set_is_one_matrix_on_both_parse_paths(self, tmp_path):
        train, _, _, _ = generate_synthetic(
            SynthConfig(n_units=4, seed=2, min_cycles=20, max_cycles=30)
        )
        f = tmp_path / "train.txt"
        save_cmapss(train, f)
        for parse in (load_cmapss, dataset._parse_cmapss_lines):
            tset = parse(f)
            assert_views_of_one_matrix(tset)
            assert tset.matrix.tobytes() == train.matrix.tobytes()

    def test_bulk_parse_hands_over_its_matrix(self, tmp_path, monkeypatch):
        # the array the bulk parse builds becomes the set's matrix, uncopied
        handed = []
        init = TrajectorySet.__init__

        def recording(self, matrix, unit_ids, bounds):
            handed.append(matrix)
            init(self, matrix, unit_ids, bounds)

        def refuse(path):
            raise AssertionError(f"line parser ran on {path}")

        monkeypatch.setattr(TrajectorySet, "__init__", recording)
        monkeypatch.setattr(dataset, "_parse_cmapss_lines", refuse)
        f = tmp_path / "train.txt"
        write_rows(f, [make_row(1, 1), make_row(1, 2), make_row(2, 1)])
        tset = load_cmapss(f)
        assert len(handed) == 1 and tset.matrix is handed[0]

    def test_parse_of_an_ordered_file_holds_one_buffer(self, tmp_path, monkeypatch):
        # the set's matrix is a view of the (rows, 26) table numpy parsed:
        # past that table, the parse's peak holds only row-length vectors
        train, _, _, _ = generate_synthetic(
            SynthConfig(n_units=20, seed=2, min_cycles=150, max_cycles=300)
        )
        f = tmp_path / "train.txt"
        save_cmapss(train, f)
        tables, read_table = [], dataset.read_table

        def recording(fh):
            tables.append(read_table(fh))
            # np.loadtxt grows its array in steps, whose overshoot depends
            # on the row count and is numpy's, not the parse's
            tracemalloc.reset_peak()
            return tables[-1]

        monkeypatch.setattr(dataset, "read_table", recording)
        tracemalloc.start()
        try:
            tset = load_cmapss(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables[0].shape == (len(train.matrix), 26)
        assert peak <= 1.2 * tables[0].nbytes
        assert np.shares_memory(tset.matrix, tables[0])
        assert tset.matrix.tobytes() == train.matrix.tobytes()

    def test_set_of_trajectories_is_stacked_once(self):
        train, test, _, _ = generate_synthetic(
            SynthConfig(n_units=3, n_regimes=2, seed=5, min_cycles=20, max_cycles=30)
        )
        for tset in (train, test):
            assert_views_of_one_matrix(tset)
        rows = np.arange(48.0).reshape(2, 24)
        tset = TrajectorySet.stack([5, 3], [rows, rows[:1]])
        assert_views_of_one_matrix(tset)
        assert tset.unit_ids == [5, 3] and tset.bounds == [0, 2, 3]
        assert not np.shares_memory(tset.matrix, rows)
        assert rows.flags.writeable  # the caller's array is untouched

    def test_mixed_feature_counts_rejected(self):
        with pytest.raises(ValidationError, match="feature count"):
            TrajectorySet.stack([1, 2], [np.zeros((2, 24)), np.zeros((2, 23))])

    @pytest.mark.parametrize("build", ["constructor", "stack"])
    @pytest.mark.parametrize(
        "unit_ids, arrays, message",
        [
            ([], [], "empty trajectory set"),
            ([1, 1], [np.zeros((2, 24)), np.zeros((3, 24))], "duplicate unit ids"),
            ([1, 2], [np.zeros((2, 24)), np.zeros((0, 24))], "unit 2: empty trajectory"),
            ([1], [np.zeros(24)], "2-d array"),
            ([1], [np.zeros((2, 4, 24))], "2-d array"),
            ([1], [np.zeros((2, N_SETTINGS))], "at least one sensor column"),
        ],
        ids=["empty-set", "duplicate-ids", "empty-unit", "1-d", "3-d", "no-sensors"],
    )
    def test_malformed_set_rejected(self, build, unit_ids, arrays, message):
        # a set is any 2-d table, curves too; one without a sensor column is
        # refused where a fleet enters training
        with pytest.raises(ValidationError, match=message):
            if build == "stack":
                tset = TrajectorySet.stack(unit_ids, arrays)
            else:
                matrix = np.concatenate(arrays) if arrays else np.empty((0, 24))
                tset = TrajectorySet(matrix, unit_ids, [0, *np.cumsum([len(a) for a in arrays])])
            train_pipeline(tset, RunConfig())


class TestLoadRulTargets:
    def test_matching_count(self, tmp_path):
        f = tmp_path / "rul.txt"
        f.write_text("10\n20\n30\n")
        assert load_rul_targets(f, 3) == [10, 20, 30]

    def test_empty_file_zero_units(self, tmp_path):
        f = tmp_path / "rul.txt"
        f.write_text("")
        assert load_rul_targets(f, 0) == []

    def test_count_mismatch(self, tmp_path):
        f = tmp_path / "rul.txt"
        f.write_text("10\n20\n")
        with pytest.raises(ValidationError):
            load_rul_targets(f, 3)

    def test_whole_float_token_accepted(self, tmp_path):
        f = tmp_path / "rul.txt"
        f.write_text("10\n20.0\n0\n")
        assert load_rul_targets(f, 3) == [10, 20, 0]

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "-7", "10.5", "1e400"])
    def test_invalid_value_reports_line(self, tmp_path, token):
        f = tmp_path / "rul.txt"
        f.write_text(f"10\n{token}\n30\n")
        with pytest.raises(DataFormatError, match=r"rul\.txt:2: RUL must be a whole"):
            load_rul_targets(f, 3)


def one_unit(feats):
    return TrajectorySet.stack([1], [np.asarray(feats, dtype=float)])


def normalize_one(norm, tset):
    """The features of the one unit in tset, transformed as regime 0."""
    feats = tset.matrix.copy()  # the set's rows are read-only
    norm.transform_inplace(feats, np.zeros(len(feats), dtype=int))
    return feats


def fit_one_regime(tset):
    """A normalizer fitted with every row of tset in regime 0."""
    rows = tset.matrix
    return fit_normalizer(rows, np.zeros(len(rows), dtype=int), 1)


class TestNormalizer:
    def test_constant_feature_masked_to_zero(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((40, 24))
        feats[:, 5] = 3.14
        tset = one_unit(feats)
        norm = fit_one_regime(tset)
        out = normalize_one(norm, tset)
        assert np.all(out[:, 5] == 0.0)

    def test_settings_constant_within_each_regime_are_masked_to_zero(self):
        # each regime of a generator fleet holds one settings vector, whose
        # std within the regime is rounding noise of up to ~1e-11
        train, *_ = generate_synthetic(SynthConfig(n_units=60, n_regimes=6, seed=1))
        rows = train.matrix
        _, labels = cluster_regimes(rows[:, :N_SETTINGS])
        norm = fit_normalizer(rows, labels, 6)
        assert norm.mask[:, :N_SETTINGS].all()
        out = rows.copy()
        norm.transform_inplace(out, labels)
        assert np.all(out[:, :N_SETTINGS] == 0.0)

    def test_two_point_feature(self):
        feats = np.zeros((2, 24))
        feats[1, :] = 2.0
        tset = one_unit(feats)
        norm = fit_one_regime(tset)
        out = normalize_one(norm, tset)
        np.testing.assert_allclose(out[0], -1.0)
        np.testing.assert_allclose(out[1], 1.0)

    def test_fit_set_becomes_standard(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((500, 24)) * rng.uniform(0.1, 10, 24) + 5
        tset = one_unit(feats)
        norm = fit_one_regime(tset)
        out = normalize_one(norm, tset)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_identity_normalizer(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((10, 24))
        tset = one_unit(feats)
        norm = fit_one_regime(tset)
        ident = type(norm)(
            mean=np.zeros_like(norm.mean),
            std=np.ones_like(norm.std),
            mask=np.zeros_like(norm.mask),
        )
        out = normalize_one(ident, tset)
        np.testing.assert_array_equal(out, feats)

    def test_per_regime_tables(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((60, 24))
        labels = np.repeat(np.arange(6), 10)
        norm = fit_normalizer(feats, labels, 6)
        assert norm.n_regimes == 6
        out = feats.copy()
        norm.transform_inplace(out, labels)
        for r in range(6):
            seg = out[10 * r : 10 * (r + 1)]
            np.testing.assert_allclose(seg.mean(axis=0), 0.0, atol=1e-9)

    def test_table_per_regime_of_the_model_even_when_the_last_is_empty(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((20, 24))
        norm = fit_normalizer(feats, np.zeros(20, dtype=int), 3)
        assert norm.mean.shape == norm.std.shape == norm.mask.shape == (3, 24)
        assert norm.mask[1:].all() and not norm.mask[0].any()

    def test_fit_set_transformed_in_row_blocks_equals_one_call(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((50, 24)) * 3 + 1
        labels = rng.integers(0, 2, 50)
        norm = fit_normalizer(feats, labels, 2)
        whole, blocks = feats.copy(), feats.copy()
        norm.transform_inplace(whole, labels)
        for a in range(0, 50, 7):
            norm.transform_inplace(blocks[a : a + 7], labels[a : a + 7])
        assert whole.tobytes() == blocks.tobytes()
        want = (feats - norm.mean[labels]) / norm.std[labels]
        assert whole.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_regimes", [1, 3])
    def test_block_sums_agree_with_one_sum_over_each_regime(self, n_regimes):
        # the fit sums ROW_BLOCK rows at a time, which only rounds otherwise;
        # a constant column is still masked, and regime 1 of 3 holds no row
        rng = np.random.default_rng(8)
        n = 2 * dataset.ROW_BLOCK + 517
        rows = rng.standard_normal((n, N_SENSORS)) * rng.uniform(0.1, 10, N_SENSORS) + 5
        rows[:, 4] = 3.14
        labels = rng.choice([0, n_regimes - 1], n)
        norm = fit_normalizer(rows, labels, n_regimes)
        constant = np.arange(N_SENSORS) == 4
        for r in range(n_regimes):
            sub = rows[labels == r]
            if r == 1:
                assert len(sub) == 0 and norm.mask[r].all()
                continue
            assert norm.mask[r].tolist() == constant.tolist()
            np.testing.assert_allclose(norm.mean[r], sub.mean(axis=0), rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                norm.std[r][~constant], sub.std(axis=0)[~constant], rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("n_regimes", [1, 3])
    def test_fit_holds_no_more_than_a_block_beside_the_rows(self, n_regimes):
        # no copy of the rows or of a regime's rows, and no fleet-sized x - mean
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((10 * dataset.ROW_BLOCK + 7, N_SENSORS))
        labels = rng.integers(0, n_regimes, len(rows))
        fit_normalizer(rows, labels, n_regimes)  # warm: first-call allocations
        tracemalloc.start()
        try:
            fit_normalizer(rows, labels, n_regimes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dataset.ROW_BLOCK * N_SENSORS * 8

    @pytest.mark.parametrize("values", [[1.7e308], [1e200, -1e200]], ids=["mean", "std"])
    def test_an_overflowing_column_raises_naming_its_regime(self, values):
        n = 2 * dataset.ROW_BLOCK + 3
        rows, labels = np.ones((n, N_SENSORS)), np.arange(n) % 2
        rows[labels == 1, 5] = np.resize(values, n // 2)
        with pytest.raises(NumericalError, match="^regime 1: feature mean or std overflows$"):
            fit_normalizer(rows, labels, 2)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        tset = one_unit(rng.standard_normal((10, 24)))
        norm = fit_one_regime(tset)
        with pytest.raises(ValidationError):
            norm.transform_inplace(rng.standard_normal((10, 23)), np.zeros(10, dtype=int))


class TestGenerateSynthetic:
    def test_zero_noise_samples_lie_on_subspace(self):
        cfg = SynthConfig(
            n_units=3, noise_std=0.0, drift_rate=0.0, seed=1,
            min_cycles=40, max_cycles=60,
        )
        train, _, _, regimes = generate_synthetic(cfg)
        reg = regimes[0]
        for traj in train:
            diff = traj[:, N_SETTINGS:] - reg.center
            residual = diff - (diff @ reg.basis) @ reg.basis.T
            assert np.max(np.sum(residual**2, axis=1)) <= 1e-18

    def test_determinism(self):
        cfg = SynthConfig(n_units=4, seed=7, min_cycles=40, max_cycles=60)
        a_train, a_test, a_rul, _ = generate_synthetic(cfg)
        b_train, b_test, b_rul, _ = generate_synthetic(cfg)
        assert a_rul == b_rul
        for x, y in zip(a_train, b_train):
            np.testing.assert_array_equal(x[:, N_SETTINGS:], y[:, N_SETTINGS:])
        for x, y in zip(a_test, b_test):
            np.testing.assert_array_equal(x[:, N_SETTINGS:], y[:, N_SETTINGS:])

    @pytest.mark.parametrize("n_regimes", [1, 6])
    def test_every_row_is_its_regimes_point_plus_the_drift(self, n_regimes):
        # noise-free: settings are the regime's, and the residual off the
        # regime's subspace is drift_rate * max(0, t - int(fraction * L)) along
        # its drift direction, at every cycle t of every unit of both fleets
        cfg = SynthConfig(
            n_units=8, n_regimes=n_regimes, noise_std=0.0, drift_rate=0.05,
            drift_onset_fraction=0.4, seed=5, min_cycles=40, max_cycles=90,
        )
        train, test, truths, regimes = generate_synthetic(cfg)
        settings = np.array([reg.settings for reg in regimes])
        seen = set()
        for fleet, withheld in ((train, [0] * cfg.n_units), (test, truths)):
            for rows, tail in zip(fleet, withheld):
                match = (rows[:, None, :N_SETTINGS] == settings).all(axis=2)
                assert (match.sum(axis=1) == 1).all()
                k = match.argmax(axis=1)
                onset = int(cfg.drift_onset_fraction * (len(rows) + tail))
                steps = np.maximum(0, np.arange(1, len(rows) + 1) - onset)
                for r in set(k.tolist()):
                    reg, mine = regimes[r], k == r
                    diff = rows[mine, N_SETTINGS:] - reg.center
                    residual = diff - (diff @ reg.basis) @ reg.basis.T
                    expected = cfg.drift_rate * steps[mine, None] * reg.drift_dir
                    np.testing.assert_allclose(residual, expected, rtol=0, atol=1e-12)
                seen.update(k.tolist())
        assert seen == set(range(n_regimes))

    @pytest.mark.parametrize("seed", range(4))
    def test_test_cuts_keep_a_prefix_of_a_drawn_length(self, seed):
        cfg = SynthConfig(n_units=40, seed=seed, min_cycles=20, max_cycles=45,
                          min_test_cycles=30)
        _, test, truths, _ = generate_synthetic(cfg)
        for rows, tail in zip(test, truths):
            length = len(rows) + tail
            assert cfg.min_cycles <= length <= cfg.max_cycles
            assert min(cfg.min_test_cycles, length - 1) <= len(rows) < length

    def test_drift_energy_at_final_cycle(self):
        cfg = SynthConfig(
            n_units=1, noise_std=0.0, drift_rate=0.05,
            drift_onset_fraction=0.5, seed=2, min_cycles=200, max_cycles=200,
        )
        train, _, _, regimes = generate_synthetic(cfg)
        traj = next(iter(train))
        reg = regimes[0]
        diff = traj[-1, N_SETTINGS:] - reg.center
        residual = diff - reg.basis @ (reg.basis.T @ diff)
        assert residual @ residual == pytest.approx((100 * 0.05) ** 2, rel=1e-10)

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            generate_synthetic(SynthConfig(noise_std=-1.0))
        with pytest.raises(ValidationError):
            generate_synthetic(SynthConfig(subspace_dim=30))

    @pytest.mark.parametrize("field, value, message", [
        ("n_units", 0, "n_units must be >= 1"),
        ("subspace_dim", 0, "subspace_dim must be >= 1"),
        ("subspace_dim", N_SENSORS, "subspace_dim must be < number of sensor features"),
        ("n_regimes", 0, "n_regimes must be >= 1"),
        ("noise_std", float("nan"), "noise_std must be finite and >= 0"),
        ("drift_rate", float("-inf"), "drift_rate must be finite"),
        ("drift_onset_fraction", 1.5, r"drift_onset_fraction must be in \[0, 1\]"),
        ("max_cycles", 100, "min_cycles must be <= max_cycles"),
        ("min_test_cycles", 0, "min_test_cycles must be >= 1"),
    ])
    def test_an_invalid_field_raises_on_construction(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("min_cycles", [0, 1])
    def test_min_cycles_below_two_rejected_for_every_seed(self, min_cycles):
        # a one-cycle unit leaves its test copy nothing to keep; whether a
        # fleet drew one used to depend on the seed
        for seed in range(4):
            with pytest.raises(ValidationError, match="min_cycles must be >= 2"):
                SynthConfig(n_units=20, min_cycles=min_cycles, max_cycles=2, seed=seed)

    def test_two_cycle_units_generate(self):
        for seed in range(4):
            train, test, truths, _ = generate_synthetic(
                SynthConfig(n_units=20, min_cycles=2, max_cycles=2, seed=seed)
            )
            assert [len(t) for t in train] == [2] * 20
            assert [len(t) for t in test] == [1] * 20
            assert truths == [1] * 20

    def test_mean_distance_matches_analytic_expectation(self):
        # drift-free fleet scored by the true generating model: the mean
        # distance has a closed form from the chi-square terms
        cfg = SynthConfig(
            n_units=40, noise_std=0.05, drift_rate=0.0, seed=3,
            min_cycles=250, max_cycles=300,
        )
        train, _, _, regimes = generate_synthetic(cfg)
        reg = regimes[0]
        delta = 0.01
        model = SubspaceModel(basis=reg.basis, center=reg.center, spreads=reg.spreads)
        rows = train.matrix[:, N_SETTINGS:]
        assert len(rows) >= 10_000
        dists = mahalanobis_rows(model, rows, delta)

        s2 = cfg.noise_std**2
        expected = delta * np.sum((reg.spreads + s2) / reg.spreads) + (
            N_SENSORS - cfg.subspace_dim
        ) * s2
        stderr = dists.std() / np.sqrt(len(dists))
        assert abs(dists.mean() - expected) <= 3 * stderr


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), factor=st.floats(0.1, 10.0))
def test_normalizer_round_trip_property(seed, factor):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((50, 24)) * factor
    tset = one_unit(feats)
    norm = fit_one_regime(tset)
    out = normalize_one(norm, tset)
    unmasked = ~norm.mask[0]
    np.testing.assert_allclose(out[:, unmasked].mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(out[:, unmasked].std(axis=0), 1.0, atol=1e-9)
