import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from subtrack import persist
from subtrack.config import RunConfig
from subtrack.dataset import N_SENSORS, Normalizer
from subtrack.errors import NumericalError, ValidationError
from subtrack.fit import DOMINANT_GAP, FORGETTING, fit_spectrum, pick_dim, spectrum, update
from subtrack.health import DistanceScaler
from subtrack.multiscale import MultiModel
from subtrack.pipeline import TrainedPipeline
from subtrack.rul import Library
from subtrack.subspace import SubspaceModel, mahalanobis_rows

DELTA = 0.01  # the in-subspace weight of every distance below


def random_model(rng, dim, sub_dim):
    basis, _ = np.linalg.qr(rng.standard_normal((dim, sub_dim)))
    return SubspaceModel(
        basis=basis,
        center=rng.standard_normal(dim),
        spreads=rng.uniform(0.5, 3.0, sub_dim),
    )


def fit(window, sub_dim):
    """The member training fits to a window of healthy rows."""
    return fit_spectrum(*spectrum(window), sub_dim)


def solo(model):
    """The model as the single-regime (K=1) K-model the pipeline uses."""
    return MultiModel(models=[model], centroids=np.zeros((1, 3)), delta=DELTA)


def model_document(mm):
    """The model document of an sst pipeline around the K-model mm, with
    the default config and its other tables placeholders of their shapes."""
    k, width = mm.n_regimes, N_SENSORS
    pipe = TrainedPipeline(
        config=RunConfig(),
        normalizer=Normalizer(mean=np.zeros((k, width)), std=np.ones((k, width)),
                              mask=np.zeros((k, width), dtype=bool)),
        model=mm,
        scaler=DistanceScaler(floor=0.0, ceiling=1.0),
        regressor=None,
        library=Library.from_padded(np.array([1]), np.array([1]), np.ones((1, 1))),
    )
    return json.loads(json.dumps(persist.model_document(pipe)))


def read_model(doc):
    """The K-model a model document holds."""
    return persist.read_model_document(doc)["model"]


def distance(model, x):
    """The distance of the single vector x."""
    return mahalanobis_rows(model, np.atleast_2d(x), DELTA)[0]


def project(model, x):
    """Coordinates of x - center in the basis."""
    return (x - model.center) @ model.basis


def explicit_complement_distance(model, x):
    """Oracle: evaluate the distance with a materialized complement basis."""
    full = scipy.linalg.null_space(model.basis.T)  # (D, D-d)
    diff = x - model.center
    coords = model.basis.T @ diff
    in_term = DELTA * np.sum(coords**2 / model.spreads)
    out_term = np.sum((full.T @ diff) ** 2)
    return in_term + out_term


def test_a_member_holds_only_its_fit():
    # delta is read once for every member, and the K-model holds it
    assert [f.name for f in dataclasses.fields(SubspaceModel)] == ["basis", "center", "spreads"]
    assert [f.name for f in dataclasses.fields(MultiModel)] == ["models", "centroids", "delta"]


class TestFitSpectrum:
    def test_exact_subspace_window_has_zero_residual(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        center = rng.standard_normal(8)
        window = center + rng.standard_normal((30, 2)) @ basis.T
        model = fit(window, 2)
        for row in window:
            diff = row - model.center
            residual = diff - model.basis @ (model.basis.T @ diff)
            assert residual @ residual <= 1e-18

    def test_identical_rows_degenerate(self):
        row = np.arange(5.0)
        model = fit(np.tile(row, (10, 1)), 2)
        np.testing.assert_allclose(model.center, row)
        assert np.all(model.spreads == 1e-8)

    def test_eigenpairs_match_dense_eigensolver(self):
        # oracle: scipy dense eigendecomposition of the explicit covariance
        rng = np.random.default_rng(42)
        window = rng.standard_normal((200, 10)) * rng.uniform(0.5, 4.0, 10)
        model = fit(window, 3)

        centered = window - window.mean(axis=0)
        cov = sum(np.outer(r, r) for r in centered) / (len(window) - 1)
        vals, vecs = scipy.linalg.eigh(cov)
        top = np.argsort(vals)[::-1][:3]
        np.testing.assert_allclose(model.spreads, vals[top], atol=1e-9)
        # compare spanned subspaces through their projectors
        p_est = model.basis @ model.basis.T
        p_true = vecs[:, top] @ vecs[:, top].T
        np.testing.assert_allclose(p_est, p_true, atol=1e-9)


class TestPickDim:
    def test_largest_ratio_marks_the_edge(self):
        assert pick_dim(np.array([0.01, 0.009, 1.0, 4.0, 0.011, 2.0])) == 3

    def test_constant_sensors_add_a_null_space_below_the_floor(self):
        # 7 masked sensors normalize to exact zeros: their eigenvalues are
        # rounding, and the ratio of the last noise eigenvalue to them is the
        # largest; only the eigenvalues above the floor are compared
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(rng.standard_normal((14, 3)))
        rows = np.zeros((200, N_SENSORS))
        rows[:, 7:] = (rng.standard_normal((200, 3)) * [2.0, 1.5, 1.0]) @ basis.T \
            + 0.05 * rng.standard_normal((200, 14))
        eigvals = np.sort(spectrum(rows)[1])[::-1]
        assert np.abs(eigvals[14:]).max() < 1e-12 * eigvals[0]
        assert np.argmax(eigvals[:14] / np.maximum(eigvals[1:15], 1e-300)) + 1 == 14
        assert pick_dim(spectrum(rows)[1]) == 3

    def test_isotropic_rows_take_the_fallback(self):
        # no dominant gap: the eigenvalues above their mean
        rows = np.random.default_rng(4).standard_normal((400, N_SENSORS))
        eigvals = np.sort(spectrum(rows)[1])[::-1]
        assert (eigvals[:-1] / eigvals[1:]).max() < DOMINANT_GAP
        assert pick_dim(eigvals) == np.sum(eigvals > eigvals.mean()) > 1

    def test_a_spike_just_under_the_gap_reads_two_not_one(self):
        # only the first eigenvalue lies above the mean
        eigvals = np.array([1.0] + [1 / (0.99 * DOMINANT_GAP)] * (N_SENSORS - 1))
        assert np.sum(eigvals > eigvals.mean()) == 1
        assert pick_dim(eigvals) == 2

    def test_a_window_of_exact_rank_without_a_gap_reads_its_rank(self):
        # no noise: past the rank, rounding below the floor, which the mean
        # over all D eigenvalues still counts, so each axis lies above it
        rng = np.random.default_rng(6)
        basis, _ = np.linalg.qr(rng.standard_normal((N_SENSORS, 3)))
        rows = (rng.standard_normal((100, 3)) * [1.0, 0.8, 0.6]) @ basis.T
        eigvals = np.sort(spectrum(rows)[1])[::-1]
        assert np.abs(eigvals[3:]).max() < 1e-12 * eigvals[0]
        assert (eigvals[:2] / eigvals[1:3]).max() < DOMINANT_GAP
        assert pick_dim(eigvals) == 3

    @pytest.mark.parametrize("eigvals", [np.zeros(5), np.array([0.0, 3.0, 1e-11, -1e-17])])
    def test_a_spectrum_of_rank_at_most_one_reads_one(self, eigvals):
        assert pick_dim(eigvals) == 1


class TestMahalanobis:
    def test_zero_at_center(self):
        model = random_model(np.random.default_rng(1), 6, 2)
        assert distance(model, model.center) == 0.0

    def test_hand_computed_2d(self):
        model = SubspaceModel(
            basis=np.array([[1.0], [0.0]]),
            center=np.zeros(2),
            spreads=np.array([1.0]),
        )
        assert distance(model, np.array([1.0, 2.0])) == pytest.approx(4.01)

    def test_matches_explicit_complement(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 10, 3)
        rows = rng.standard_normal((1000, 10)) * 3
        got = mahalanobis_rows(model, rows, DELTA)
        for x, d in zip(rows, got):
            assert d == pytest.approx(explicit_complement_distance(model, x), abs=1e-9)

    def test_delta_weights_only_the_in_subspace_term(self):
        # distances at 0 and at two weights: the step is linear in delta
        rng = np.random.default_rng(11)
        model = random_model(rng, 8, 3)
        rows = rng.standard_normal((50, 8)) * 2
        out = mahalanobis_rows(model, rows, 0.0)
        coords = (rows - model.center) @ model.basis
        in_term = np.sum(coords**2 / model.spreads, axis=1)
        for delta in (DELTA, 5.0):
            np.testing.assert_allclose(
                mahalanobis_rows(model, rows, delta), out + delta * in_term, rtol=1e-12
            )

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(2), 6, 2)
        with pytest.raises(ValidationError):
            mahalanobis_rows(model, np.zeros((1, 5)), DELTA)
        with pytest.raises(ValidationError):
            mahalanobis_rows(model, np.zeros(6), DELTA)


class TestProject:
    def test_center_maps_to_zero(self):
        model = random_model(np.random.default_rng(4), 7, 3)
        np.testing.assert_allclose(project(model, model.center), np.zeros(3))

    def test_basis_column_maps_to_unit(self):
        model = random_model(np.random.default_rng(5), 7, 3)
        coords = project(model, model.center + model.basis[:, 0])
        np.testing.assert_allclose(coords, [1.0, 0.0, 0.0], atol=1e-12)

    def test_pythagoras_with_residual(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 9, 3)
        x = rng.standard_normal(9)
        coords = project(model, x)
        recon = model.center + model.basis @ coords
        diff = x - model.center
        residual_sq = np.sum((x - recon) ** 2)
        assert diff @ diff == pytest.approx(coords @ coords + residual_sq, abs=1e-10)


def ew_oracle(model, x):
    """Center, spreads and projector of the exponentially weighted step,
    from a dense eigendecomposition of the explicit covariance."""
    a, d = FORGETTING, model.subspace_dim
    diff = x - model.center
    cov = a * (model.basis * model.spreads) @ model.basis.T
    cov += a * (1.0 - a) * np.outer(diff, diff)
    vals, vecs = scipy.linalg.eigh(cov)
    top = np.argsort(vals)[::-1][:d]
    return (
        model.center + (1.0 - a) * diff,
        vals[top],
        vecs[:, top] @ vecs[:, top].T,
    )


class TestUpdate:
    def test_matches_ew_covariance_oracle(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(200):
            dim = int(rng.integers(4, 30))
            model = random_model(rng, dim, int(rng.integers(1, min(dim, 6))))
            x = rng.standard_normal(dim) * 2
            new = update(model, x)
            center, spreads, projector = ew_oracle(model, x)
            worst = max(
                worst,
                np.max(np.abs(new.center - center)),
                np.max(np.abs(new.spreads - spreads)),
                np.max(np.abs(new.basis @ new.basis.T - projector)),
            )
        assert worst <= 1e-9

    def test_sample_at_center(self):
        # x = c adds nothing: the covariance only decays by FORGETTING
        rng = np.random.default_rng(8)
        model = random_model(rng, 6, 2)
        new = update(model, model.center)
        np.testing.assert_array_equal(new.center, model.center)
        np.testing.assert_allclose(
            np.sort(new.spreads), np.sort(FORGETTING * model.spreads), rtol=1e-12
        )
        np.testing.assert_allclose(
            new.basis @ new.basis.T, model.basis @ model.basis.T, atol=1e-12
        )

    def test_invariants_hold_after_updates(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 12, 4)
        for _ in range(200):
            model = update(model, rng.standard_normal(12))
            model.validate()
            assert model.basis.flags.c_contiguous

    def test_non_finite_input(self):
        model = random_model(np.random.default_rng(11), 6, 2)
        x = np.zeros(6)
        x[0] = np.nan
        with pytest.raises(NumericalError):
            update(model, x)

    def test_wrong_shape_input(self):
        model = random_model(np.random.default_rng(21), 6, 2)
        for x in (np.zeros(5), np.zeros((1, 6))):
            with pytest.raises(ValidationError):
                update(model, x)

    def test_epoch_mean_distance_non_increasing_on_static_data(self):
        # simulation oracle: repeated passes over static subspace data should
        # not make the fit worse (5% noise violations allowed)
        rng = np.random.default_rng(12)
        basis, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        center = rng.standard_normal(10)
        data = center + rng.standard_normal((80, 3)) @ (
            basis * np.sqrt([2.0, 1.0, 0.5])
        ).T + 0.01 * rng.standard_normal((80, 10))
        model = fit(data[:20], 3)
        means = [np.mean(mahalanobis_rows(model, data, DELTA))]
        for _ in range(10):
            for row in data:
                model = update(model, row)
            means.append(np.mean(mahalanobis_rows(model, data, DELTA)))
        increases = sum(b > a * 1.05 for a, b in zip(means, means[1:]))
        assert increases <= 1


class TestSerialization:
    # a single-regime model tracks the sensors, as every model does
    DIM = N_SENSORS

    def test_round_trip(self):
        model = random_model(np.random.default_rng(16), self.DIM, 3)
        loaded = read_model(model_document(solo(model))).models[0]
        np.testing.assert_array_equal(loaded.basis, model.basis)
        np.testing.assert_array_equal(loaded.center, model.center)
        np.testing.assert_array_equal(loaded.spreads, model.spreads)

    def test_init_model_distances_survive_round_trip(self):
        # eigh returns Fortran-ordered vectors; a basis kept in that layout
        # gave distances a few ulps off the C-ordered basis persist reads back
        rng = np.random.default_rng(19)
        window = rng.standard_normal((200, self.DIM)) @ rng.standard_normal((self.DIM, self.DIM))
        model = fit(window, 3)
        loaded = read_model(model_document(solo(model))).models[0]
        rows = rng.standard_normal((5000, self.DIM))
        assert mahalanobis_rows(loaded, rows, DELTA).tobytes() == (
            mahalanobis_rows(model, rows, DELTA).tobytes()
        )

    def test_rejects_bad_version(self):
        doc = model_document(solo(random_model(np.random.default_rng(17), self.DIM, 2)))
        doc["version"] = 99
        with pytest.raises(ValidationError, match="unsupported model format version 99"):
            read_model(doc)

    def test_rejects_broken_invariant(self):
        doc = model_document(solo(random_model(np.random.default_rng(18), self.DIM, 2)))
        doc["members"][0]["lambdas"][0] = -1.0
        with pytest.raises(ValidationError, match="positive"):
            read_model(doc)


# ---------------------------------------------------------------------------
# property tests

dims = st.tuples(st.integers(4, 30), st.integers(1, 3)).filter(lambda t: t[1] < t[0])


@settings(max_examples=50, deadline=None)
@given(dims=dims, seed=st.integers(0, 10_000))
def test_complement_identity_property(dims, seed):
    dim, sub_dim = dims
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, sub_dim)
    x = rng.standard_normal(dim) * 2
    assert distance(model, x) == pytest.approx(
        explicit_complement_distance(model, x), abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rotation_equivariance(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 8, 3)
    x = rng.standard_normal(8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    rotated = SubspaceModel(
        basis=q @ model.basis,
        center=q @ model.center,
        spreads=model.spreads,
    )
    assert distance(rotated, q @ x) == pytest.approx(distance(model, x), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_distance_non_negative(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 6, 2)
    assert distance(model, rng.standard_normal(6) * 10) >= 0.0
