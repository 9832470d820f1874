import numpy as np
import pytest

from subtrack import persist
from subtrack.errors import ValidationError
from subtrack.multiscale import (
    MultiModel,
    assign_rows,
    cluster_regimes,
    nearest_centroid,
    track,
)
from subtrack.subspace import init_subspace, mahalanobis_rows, update

from test_subspace import random_model, solo


def make_multimodel(rng, n_models, dim=8, sub_dim=2, spread_centers=10.0):
    models = []
    for k in range(n_models):
        m = random_model(rng, dim, sub_dim)
        # spread the centers apart so assignments are unambiguous
        models.append(
            type(m)(
                basis=m.basis,
                center=m.center + spread_centers * k * np.ones(dim),
                spreads=m.spreads,
                delta=m.delta,
            )
        )
    centroids = np.arange(n_models, dtype=float)[:, None] * np.ones((1, 3))
    return MultiModel(models=models, centroids=centroids)


class TestClusterRegimes:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3))
        centroids = cluster_regimes(pts, 1, seed=0)
        assert centroids.shape == (1, 3)
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0))

    def test_well_separated_clusters(self):
        rng = np.random.default_rng(1)
        centers = rng.uniform(-50, 50, (6, 3)) * 10
        pts = np.vstack(
            [c + 0.1 * rng.standard_normal((30, 3)) for c in centers]
        )
        centroids = cluster_regimes(pts, 6, seed=0)
        labels = nearest_centroid(centroids, pts)
        assert set(labels) == set(range(6))
        # internal tightness: max within-cluster distance < min between-centroid
        max_within = max(
            np.max(np.linalg.norm(pts[labels == k] - centroids[k], axis=1))
            for k in range(6)
        )
        min_between = min(
            np.linalg.norm(centroids[i] - centroids[j])
            for i in range(6)
            for j in range(i + 1, 6)
        )
        assert max_within < min_between

    def test_each_point_own_cluster(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        centroids = cluster_regimes(pts, 4, seed=3)
        labels = nearest_centroid(centroids, pts)
        assert len(set(labels.tolist())) == 4
        for k in range(4):
            np.testing.assert_allclose(pts[labels == k][0], centroids[k])

    def test_too_few_distinct_points(self):
        pts = np.zeros((10, 3))
        with pytest.raises(ValidationError):
            cluster_regimes(pts, 2, seed=0)

    def test_too_few_distinct_points_counted_over_repeats(self):
        pts = np.repeat(np.eye(3), 10, axis=0)
        message = "3 distinct settings vectors for 4 clusters"
        with pytest.raises(ValidationError, match=message):
            cluster_regimes(pts, 4, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((100, 3))
        a = cluster_regimes(pts, 4, seed=11)
        b = cluster_regimes(pts, 4, seed=11)
        np.testing.assert_array_equal(a, b)


def subspace_angle(a, b):
    """Largest principal angle between the column spans of a and b."""
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(min(1.0, sv.min())))


def assert_models_equal(a, b):
    np.testing.assert_array_equal(a.basis, b.basis)
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.spreads, b.spreads)


class TestAssign:
    def test_single_model_always_zero(self):
        rng = np.random.default_rng(3)
        mm = make_multimodel(rng, 1)
        labels, _ = assign_rows(mm, rng.standard_normal((10, 8)))
        np.testing.assert_array_equal(labels, 0)

    def test_center_of_model_j_wins_with_zero_distance(self):
        rng = np.random.default_rng(4)
        mm = make_multimodel(rng, 3)
        centers = np.array([m.center for m in mm.models])
        labels, dists = assign_rows(mm, centers)
        np.testing.assert_array_equal(labels, [0, 1, 2])
        np.testing.assert_array_equal(dists, 0.0)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(5)
        mm = make_multimodel(rng, 3, spread_centers=2.0)
        rows = rng.standard_normal((100, 8)) * 5
        labels, dists = assign_rows(mm, rows)
        each = [[mahalanobis_rows(m, x[None])[0] for m in mm.models] for x in rows]
        for k, dist, row_dists in zip(labels, dists, each):
            assert k == int(np.argmin(row_dists))
            assert dist == pytest.approx(row_dists[k], rel=1e-12)
            assert dist <= min(row_dists) * (1 + 1e-12)

    def test_ties_go_to_lowest_index(self):
        model = random_model(np.random.default_rng(14), 8, 2)
        mm = MultiModel(models=[model] * 3, centroids=np.eye(3))
        labels, _ = assign_rows(mm, np.random.default_rng(15).standard_normal((20, 8)))
        np.testing.assert_array_equal(labels, 0)


class TestUpdateWinner:
    def test_single_model_reduces_to_plain_update(self):
        rng = np.random.default_rng(7)
        mm = make_multimodel(rng, 1)
        rows = rng.standard_normal((50, 8))
        model = mm.models[0]
        for row in rows:
            model = update(model, row)
        assert_models_equal(track(mm, rows).models[0], model)

    def test_losers_stay_bitwise_identical(self):
        rng = np.random.default_rng(8)
        mm = make_multimodel(rng, 3)
        rows = mm.models[2].center + 0.01 * rng.standard_normal((5, 8))
        tracked = track(mm, rows)
        for k in (0, 1):
            assert tracked.models[k] is mm.models[k]
        assert not np.array_equal(tracked.models[2].center, mm.models[2].center)

    def test_empty_stream_is_a_no_op(self):
        mm = make_multimodel(np.random.default_rng(16), 2)
        tracked = track(mm, np.zeros((0, 8)))
        for a, b in zip(tracked.models, mm.models):
            assert_models_equal(a, b)
        np.testing.assert_array_equal(tracked.centroids, mm.centroids)

    def test_one_dimensional_input_raises(self):
        mm = make_multimodel(np.random.default_rng(17), 2)
        with pytest.raises(ValidationError):
            track(mm, np.zeros(8))

    def test_two_regime_training_converges(self):
        # interleaved rows of two regimes: each model converges to the
        # subspace of its own regime
        rng = np.random.default_rng(9)
        groups = []
        models = []
        bases = []
        for k in range(2):
            basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
            center = 20.0 * k + rng.standard_normal(8)
            data = center + rng.standard_normal((60, 2)) @ basis.T \
                + 0.01 * rng.standard_normal((60, 8))
            groups.append(data)
            models.append(init_subspace(data[:15], 2))
            bases.append(basis)
        interleaved = np.empty((120, 8))
        interleaved[0::2] = groups[0]
        interleaved[1::2] = groups[1]
        mm = MultiModel(
            models=models,
            centroids=np.array([[0.0, 0, 0], [20.0, 20, 20]]),
        )
        tracked = track(mm, interleaved)
        for model, basis in zip(tracked.models, bases):
            assert subspace_angle(model.basis, basis) < 0.05


class TestKEqualsOneEquivalence:
    def test_bit_identical_to_single_model_pipeline(self):
        # K=1 tracking from a batch init is the single-model update loop
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        data = rng.standard_normal(8) + rng.standard_normal((80, 2)) @ basis.T \
            + 0.01 * rng.standard_normal((80, 8))
        init = init_subspace(data[:20], 2)
        ref = init
        for row in data:
            ref = update(ref, row)
        assert_models_equal(track(solo(init), data).models[0], ref)


class TestNearestCentroid:
    def test_labels_by_euclidean_distance(self):
        centroids = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        pts = np.array([[1.0, 0, 0], [9.0, 0, 0], [4.9, 0, 0], [5.1, 0, 0]])
        np.testing.assert_array_equal(
            nearest_centroid(centroids, pts), [0, 1, 0, 1]
        )


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        mm = make_multimodel(rng, 3)
        back = persist.model_from_dict(persist.model_to_dict(mm))
        assert back.n_regimes == 3
        np.testing.assert_array_equal(back.centroids, mm.centroids)
        for a, b in zip(back.models, mm.models):
            np.testing.assert_array_equal(a.basis, b.basis)

    def test_rejects_k_mismatch(self):
        rng = np.random.default_rng(12)
        doc = persist.model_to_dict(make_multimodel(rng, 2))
        doc["K"] = 3
        with pytest.raises(ValidationError):
            persist.model_from_dict(doc)
