import numpy as np
import pytest

from subtrack import persist
from subtrack.errors import ValidationError
from subtrack.multiscale import (
    MultiModel,
    assign,
    assign_rows,
    cluster_regimes,
    nearest_centroid,
    train_multi_until_converged,
    update_winner,
)
from subtrack.subspace import (
    TrainConfig,
    init_subspace,
    mahalanobis,
    mahalanobis_rows,
    update,
)

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
        labels, centroids = cluster_regimes(pts, 1, seed=0)
        assert np.all(labels == 0)
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0))

    def test_well_separated_clusters(self):
        rng = np.random.default_rng(1)
        centers = rng.uniform(-50, 50, (6, 3)) * 10
        pts = np.vstack(
            [c + 0.1 * rng.standard_normal((30, 3)) for c in centers]
        )
        labels, centroids = cluster_regimes(pts, 6, seed=0)
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
        labels, centroids = cluster_regimes(pts, 4, seed=3)
        assert len(set(labels.tolist())) == 4
        for k in range(4):
            np.testing.assert_allclose(pts[labels == k][0], centroids[k])

    def test_too_few_distinct_points(self):
        pts = np.zeros((10, 3))
        with pytest.raises(ValidationError):
            cluster_regimes(pts, 2, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((100, 3))
        a = cluster_regimes(pts, 4, seed=11)
        b = cluster_regimes(pts, 4, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestAssign:
    def test_single_model_always_zero(self):
        rng = np.random.default_rng(3)
        mm = make_multimodel(rng, 1)
        for _ in range(10):
            k, _ = assign(mm, rng.standard_normal(8))
            assert k == 0

    def test_center_of_model_j_wins_with_zero_distance(self):
        rng = np.random.default_rng(4)
        mm = make_multimodel(rng, 3)
        for j in range(3):
            k, dist = assign(mm, mm.models[j].center)
            assert k == j
            assert dist == 0.0

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(5)
        mm = make_multimodel(rng, 3, spread_centers=2.0)
        for _ in range(100):
            x = rng.standard_normal(8) * 5
            k, dist = assign(mm, x)
            dists = [mahalanobis(m, x) for m in mm.models]
            assert k == int(np.argmin(dists))
            assert dist == dists[k]
            assert all(dist <= d for d in dists)

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(6)
        mm = make_multimodel(rng, 3, spread_centers=2.0)
        rows = rng.standard_normal((30, 8))
        labels, dists = assign_rows(mm, rows)
        for i, x in enumerate(rows):
            k, d = assign(mm, x)
            assert labels[i] == k
            assert dists[i] == pytest.approx(d, rel=1e-12)


class TestUpdateWinner:
    def test_single_model_reduces_to_plain_update(self):
        rng = np.random.default_rng(7)
        mm = make_multimodel(rng, 1)
        cfg = TrainConfig()
        x = rng.standard_normal(8)
        updated = update_winner(mm, x, cfg)
        solo = update(mm.models[0], x, cfg)
        np.testing.assert_array_equal(updated.models[0].basis, solo.basis)
        np.testing.assert_array_equal(updated.models[0].center, solo.center)
        np.testing.assert_array_equal(updated.models[0].spreads, solo.spreads)

    def test_losers_stay_bitwise_identical(self):
        rng = np.random.default_rng(8)
        mm = make_multimodel(rng, 3)
        x = mm.models[2].center + 0.01 * rng.standard_normal(8)
        updated = update_winner(mm, x, TrainConfig())
        for k in (0, 1):
            np.testing.assert_array_equal(updated.models[k].basis, mm.models[k].basis)
            np.testing.assert_array_equal(
                updated.models[k].center, mm.models[k].center
            )
        assert not np.array_equal(updated.models[2].center, mm.models[2].center)

    def test_two_regime_training_converges(self):
        rng = np.random.default_rng(9)
        groups = []
        models = []
        for k in range(2):
            basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
            center = 20.0 * k + rng.standard_normal(8)
            data = center + rng.standard_normal((60, 2)) @ basis.T \
                + 0.01 * rng.standard_normal((60, 8))
            groups.append(data)
            models.append(init_subspace(data[:15], 2))
        # alternate samples from the two regimes
        interleaved = np.empty((120, 8))
        interleaved[0::2] = groups[0]
        interleaved[1::2] = groups[1]
        mm = MultiModel(
            models=models,
            centroids=np.array([[0.0, 0, 0], [20.0, 20, 20]]),
        )
        cfg = TrainConfig(rel_tol=1e-4, max_epochs=100)
        _, trace = train_multi_until_converged(mm, interleaved, cfg)
        assert len(trace) - 1 < 100


def reference_training(model, rows, cfg):
    """The documented single-subspace rule: full epochs of subspace.update
    until the relative change of the epoch-mean distance drops below rel_tol
    (or stays at 0), at most max_epochs."""
    trace = [float(np.mean(mahalanobis_rows(model, rows)))]
    for _ in range(cfg.max_epochs):
        for row in rows:
            model = update(model, row, cfg)
        prev, mean_dist = trace[-1], float(np.mean(mahalanobis_rows(model, rows)))
        trace.append(mean_dist)
        if prev == 0.0:
            if mean_dist == 0.0:
                break
        elif abs(mean_dist - prev) / prev < cfg.rel_tol:
            break
    return model, trace


class TestKEqualsOneEquivalence:
    def test_bit_identical_to_single_model_pipeline(self):
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        data = rng.standard_normal(8) + rng.standard_normal((80, 2)) @ basis.T \
            + 0.01 * rng.standard_normal((80, 8))
        init = init_subspace(data[:20], 2)
        cfg = TrainConfig(rel_tol=1e-4, max_epochs=30)

        ref, ref_trace = reference_training(init, data, cfg)
        multi, multi_trace = train_multi_until_converged(solo(init), data, cfg)

        assert ref_trace == multi_trace
        np.testing.assert_array_equal(ref.basis, multi.models[0].basis)
        np.testing.assert_array_equal(ref.center, multi.models[0].center)
        np.testing.assert_array_equal(ref.spreads, multi.models[0].spreads)


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

    def test_single_model_document_loads_as_k1(self):
        model = random_model(np.random.default_rng(13), 7, 3)
        back = persist.model_from_dict(persist.subspace_to_dict(model))
        assert back.n_regimes == 1
        np.testing.assert_array_equal(back.centroids, np.zeros((1, 3)))
        np.testing.assert_array_equal(back.models[0].basis, model.basis)
        np.testing.assert_array_equal(back.models[0].spreads, model.spreads)
