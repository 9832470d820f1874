import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtrack import multiscale
from subtrack.dataset import N_SENSORS, N_SETTINGS
from subtrack.errors import NumericalError, ValidationError
from subtrack.fit import cluster_regimes, track, update
from subtrack.multiscale import MultiModel, assign_rows, nearest_centroid
from subtrack.subspace import mahalanobis_rows
from subtrack.synthetic import SynthConfig, generate_synthetic

from test_subspace import DELTA, fit, model_document, random_model, read_model, solo


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
            )
        )
    centroids = np.arange(n_models, dtype=float)[:, None] * np.ones((1, 3))
    return MultiModel(models=models, centroids=centroids)


# CMAPSS's six published operating points in raw units (altitude in kft,
# Mach number, throttle resolver angle; Saxena et al., PHM 2008)
CMAPSS_POINTS = np.array([(0, 0, 100), (10, 0.25, 100), (20, 0.7, 100),
                          (25, 0.62, 60), (35, 0.84, 100), (42, 0.84, 100)], dtype=float)


def jittered_cmapss(rng, n=200, sigma=0.1):
    """n rows drawn from the six CMAPSS points plus N(0, sigma) jitter: six
    regimes, none of whose rows repeats a seed."""
    return CMAPSS_POINTS[rng.integers(6, size=n)] + rng.normal(0.0, sigma, (n, 3))


class TestClusterRegimes:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3))
        centroids, labels = cluster_regimes(pts)
        assert centroids.shape == (1, 3)
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0))
        np.testing.assert_array_equal(labels, np.zeros(50))

    def test_well_separated_clusters(self):
        rng = np.random.default_rng(1)
        centers = rng.uniform(-50, 50, (6, 3)) * 10
        pts = np.vstack(
            [c + 0.1 * rng.standard_normal((30, 3)) for c in centers]
        )
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(labels, nearest_centroid(centroids, pts))
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
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(labels, nearest_centroid(centroids, pts))
        assert len(set(labels.tolist())) == 4
        for k in range(4):
            np.testing.assert_allclose(pts[labels == k][0], centroids[k])

    @pytest.mark.parametrize("seed", range(5))
    def test_labels_are_the_nearest_centroid_of_each_row(self, seed):
        pts = jittered_cmapss(np.random.default_rng(seed))
        centroids, labels = cluster_regimes(pts)
        assert len(centroids) == 6
        assert labels.dtype == np.uint8  # one byte: K is at most MAX_REGIMES
        np.testing.assert_array_equal(labels, nearest_centroid(centroids, pts))

    def test_labels_after_the_iteration_cap_are_of_the_final_centroids(self):
        # Lloyd's loop is capped at one step: the centroids are the means of
        # the seeds' clusters, off every seed, and the labels are by them
        pts = jittered_cmapss(np.random.default_rng(9))
        centroids, labels = cluster_regimes(pts)
        assert not (centroids[:, None] == pts[None]).all(axis=2).any()
        for k, c in enumerate(centroids):
            np.testing.assert_array_equal(c, pts[labels == k].mean(axis=0))
        np.testing.assert_array_equal(labels, nearest_centroid(centroids, pts))

    def test_too_few_distinct_points(self):
        # one settings vector, where two regimes were once asked for: one regime
        centroids, labels = cluster_regimes(np.zeros((10, 3)))
        np.testing.assert_array_equal(centroids, np.zeros((1, 3)))
        np.testing.assert_array_equal(labels, np.zeros(10))

    def test_too_few_distinct_points_counted_over_repeats(self):
        pts = np.repeat(np.eye(3), 10, axis=0)
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(centroids, np.eye(3))
        np.testing.assert_array_equal(labels, np.repeat(np.arange(3), 10))

    def test_overflowing_squared_distances_raise(self):
        # twenty rows within 1.3e154 of the first seed read K=2 beside the
        # 1e200 row, but the last lies 2.5e154 from its regime's mean
        pts = np.zeros((21, 3))
        pts[1:19, 0] = -1.3e154 + np.arange(18) * 1e140
        pts[19, 0], pts[20, 0] = 1.3e154, 1e200
        with pytest.raises(NumericalError, match="overflow"):
            cluster_regimes(pts)

    def test_seeding_picks_only_rows_off_the_chosen_centers(self):
        pts = np.vstack([np.zeros((99, 3)), [[1.0, 0, 0]]])
        centroids, _ = cluster_regimes(pts)
        assert sorted(centroids[:, 0].tolist()) == [0.0, 1.0]

    def test_rows_1e_160_apart_both_become_centroids(self):
        # their squared distance is the subnormal 1e-320, still the farthest
        pts = np.array([[0.0, 0, 0], [1e-160, 0, 0], [0.0, 0, 0]])
        centroids, labels = cluster_regimes(pts)
        assert centroids[:, 0].tolist() == [0.0, 1e-160]
        assert labels.tolist() == [0, 1, 0]

    def test_settings_1e_200_apart_read_as_one_regime(self):
        # their squared distance underflows to 0: every row sits on the first seed
        pts = np.array([[1e-200, 0, 0], [0.0, 0, 0], [1e-200, 0, 0]])
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(centroids, [[2e-200 / 3, 0, 0]])
        np.testing.assert_array_equal(labels, np.zeros(3))

    def test_every_distance_underflowing_reads_one_regime(self):
        pts = np.array([[0.0, 0, 0], [1e-200, 0, 0], [2e-200, 0, 0], [0.0, 0, 0]])
        assert len(cluster_regimes(pts)[0]) == 1

    def test_five_rows_three_apart_read_three_regimes(self):
        # the 1e-200 rows lie too near row 0 to seed a regime of their own
        pts = np.array([[0.0, 0, 0], [1e-200, 0, 0], [2e-200, 0, 0], [1.0, 0, 0], [1.5, 0, 0]])
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(centroids[:, 0], [1e-200, 1.5, 1.0])
        assert labels.tolist() == [0, 0, 0, 2, 1]

    def test_a_regime_left_no_row_raises(self):
        # seeds 0 and 3e-162 are apart (squared distance 1e-323), but the
        # mean of the 1.5e-162 rows lies too near both for any squared
        # distance to it to be above 0: every row ties to regime 0
        pts = np.zeros((102, 3))
        pts[1, 0], pts[2:, 0] = 3e-162, 1.5e-162
        message = "^regime 1 holds no settings row at 2 clusters: its centroid is nearest no row"
        with pytest.raises(ValidationError, match=message):
            cluster_regimes(pts)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
    def test_centroids_are_the_generator_regimes(self, k, seed):
        # the train and the test fleet each read the generator's K
        train, test, _, regimes = generate_synthetic(
            SynthConfig(n_units=6, n_regimes=k, seed=seed, min_cycles=30, max_cycles=60)
        )
        truth = np.array([r.settings for r in regimes])
        for settings in (train.matrix[:, :N_SETTINGS], test.matrix[:, :N_SETTINGS]):
            centroids, labels = cluster_regimes(settings)
            # one regime per centroid: the mean of a regime's identical rows
            # is its settings vector up to rounding
            match = nearest_centroid(truth, centroids)
            assert sorted(match.tolist()) == list(range(k))
            np.testing.assert_allclose(centroids, truth[match], rtol=1e-13, atol=0)
            # the labels split the rows by true regime
            true_labels = nearest_centroid(truth, settings)
            np.testing.assert_array_equal(truth[true_labels], settings)
            np.testing.assert_array_equal(match[labels], true_labels)

    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.1])
    def test_cmapss_operating_points_read_their_count(self, sigma):
        # 20,000 rows drawn from six, three or one of the points, plus
        # N(0, sigma) jitter on every setting: all distinct once sigma > 0
        rng = np.random.default_rng(0)
        for points in (CMAPSS_POINTS, CMAPSS_POINTS[[0, 2, 4]], CMAPSS_POINTS[:1]):
            rows = points[rng.integers(len(points), size=20_000)]
            rows += rng.normal(0.0, sigma, rows.shape)
            assert len(cluster_regimes(rows)[0]) == len(points)

    @pytest.mark.parametrize("pts", [
        np.random.default_rng(3).uniform(0, 100, (500, 3)),
        np.linspace(0, 1, 40)[:, None] * np.ones(3),
    ], ids=["uniform", "evenly-spaced"])
    def test_more_vectors_than_the_cap_with_no_gap_read_one_regime(self, pts):
        assert len(pts) > multiscale.MAX_REGIMES
        centroids, labels = cluster_regimes(pts)
        np.testing.assert_array_equal(centroids, pts.mean(axis=0)[None])
        np.testing.assert_array_equal(labels, np.zeros(len(pts)))

    def test_three_overflowing_radii_apart_read_three_regimes(self):
        # regimes at 0 and +-1e160, 20 jittered rows each: the first two
        # radii overflow, inf / inf reads as no gap, and the jitter ends the third
        rng = np.random.default_rng(4)
        pts = np.repeat([[0.0, 0, 0], [1e160, 0, 0], [-1e160, 0, 0]], 20, axis=0)
        pts += rng.normal(0.0, 0.01, pts.shape)
        centroids, labels = cluster_regimes(pts)
        assert sorted(np.round(centroids[:, 0] / 1e160).tolist()) == [-1, 0, 1]
        assert np.bincount(labels).tolist() == [20, 20, 20]

    def test_deterministic_given_seed(self):
        pts = jittered_cmapss(np.random.default_rng(2), n=100)
        (a, la), (b, lb) = (cluster_regimes(pts) for _ in range(2))
        assert len(a) == 6
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)


@st.composite
def near_repeated_settings(draw):
    """Rows drawn from some settings vectors, each a base vector plus offsets
    whose squared size underflows (1e-200) or is subnormal (1e-160)."""
    value = st.sampled_from([0.0, 1.0, -1.5, 1e150, -1e150]) | st.floats(-1e150, 1e150)
    offset = st.sampled_from([0.0, 1e-200, -1e-200, 2e-200, 1e-160, -1e-160, 3e-160])
    bases = draw(st.lists(st.lists(value, min_size=3, max_size=3), min_size=1, max_size=4))
    vectors = [
        np.array(draw(st.sampled_from(bases))) + draw(st.lists(offset, min_size=3, max_size=3))
        for _ in range(draw(st.integers(1, 24)))
    ]
    picks = draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=40))
    return np.array([vectors[i] for i in picks])


@settings(max_examples=300, deadline=None)
@given(near_repeated_settings())
def test_each_regime_holds_a_row_or_clustering_raises(pts):
    # at most one regime per distinct vector and MAX_REGIMES in all, each
    # nearest some row, or a typed error: never an empty regime, a numpy
    # warning or an untyped exception
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            centroids, labels = cluster_regimes(pts)
        except (ValidationError, NumericalError):
            return
    k = len(centroids)
    assert k <= min(multiscale.MAX_REGIMES, len(np.unique(pts, axis=0)))
    assert not any(np.array_equal(a, b) for a, b in combinations(centroids, 2))
    assert (np.bincount(labels, minlength=k) > 0).all()
    np.testing.assert_array_equal(labels, nearest_centroid(centroids, pts))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-50, 50)] * 3), min_size=1, max_size=16, unique=True),
    st.data(),
)
def test_distinct_vectors_repeated_read_their_count(vectors, data):
    # j <= MAX_REGIMES vectors apart, each repeated: every row sits on one of
    # the first j seeds, so K = j
    picks = data.draw(st.permutations(list(range(len(vectors))) * 3))
    pts = np.array(vectors, dtype=float)[picks]
    centroids, labels = cluster_regimes(pts)
    assert len(centroids) == len(vectors)
    np.testing.assert_array_equal(centroids[labels], pts)  # integer means are exact


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
        labels, _ = assign_rows(mm, rng.standard_normal((10, 8)), DELTA)
        np.testing.assert_array_equal(labels, 0)

    def test_center_of_model_j_wins_with_zero_distance(self):
        rng = np.random.default_rng(4)
        mm = make_multimodel(rng, 3)
        centers = np.array([m.center for m in mm.models])
        labels, dists = assign_rows(mm, centers, DELTA)
        np.testing.assert_array_equal(labels, [0, 1, 2])
        np.testing.assert_array_equal(dists, 0.0)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(5)
        mm = make_multimodel(rng, 3, spread_centers=2.0)
        rows = rng.standard_normal((100, 8)) * 5
        labels, dists = assign_rows(mm, rows, DELTA)
        each = [[mahalanobis_rows(m, x[None], DELTA)[0] for m in mm.models] for x in rows]
        for k, dist, row_dists in zip(labels, dists, each):
            assert k == int(np.argmin(row_dists))
            assert dist == pytest.approx(row_dists[k], rel=1e-12)
            assert dist <= min(row_dists) * (1 + 1e-12)

    def test_ties_go_to_lowest_index(self):
        model = random_model(np.random.default_rng(14), 8, 2)
        mm = MultiModel(models=[model] * 3, centroids=np.eye(3))
        labels, _ = assign_rows(mm, np.random.default_rng(15).standard_normal((20, 8)), DELTA)
        np.testing.assert_array_equal(labels, 0)


class TestUpdateWinner:
    def test_single_model_reduces_to_plain_update(self):
        rng = np.random.default_rng(7)
        mm = make_multimodel(rng, 1)
        rows = rng.standard_normal((50, 8))
        model = mm.models[0]
        for row in rows:
            model = update(model, row)
        assert_models_equal(track(mm, rows, DELTA).models[0], model)

    def test_losers_stay_bitwise_identical(self):
        rng = np.random.default_rng(8)
        mm = make_multimodel(rng, 3)
        rows = mm.models[2].center + 0.01 * rng.standard_normal((5, 8))
        tracked = track(mm, rows, DELTA)
        for k in (0, 1):
            assert tracked.models[k] is mm.models[k]
        assert not np.array_equal(tracked.models[2].center, mm.models[2].center)

    def test_empty_stream_is_a_no_op(self):
        mm = make_multimodel(np.random.default_rng(16), 2)
        tracked = track(mm, np.zeros((0, 8)), DELTA)
        for a, b in zip(tracked.models, mm.models):
            assert_models_equal(a, b)
        np.testing.assert_array_equal(tracked.centroids, mm.centroids)

    def test_one_dimensional_input_raises(self):
        mm = make_multimodel(np.random.default_rng(17), 2)
        with pytest.raises(ValidationError):
            track(mm, np.zeros(8), DELTA)

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
            models.append(fit(data[:15], 2))
            bases.append(basis)
        interleaved = np.empty((120, 8))
        interleaved[0::2] = groups[0]
        interleaved[1::2] = groups[1]
        mm = MultiModel(
            models=models,
            centroids=np.array([[0.0, 0, 0], [20.0, 20, 20]]),
        )
        tracked = track(mm, interleaved, DELTA)
        for model, basis in zip(tracked.models, bases):
            assert subspace_angle(model.basis, basis) < 0.05


class TestKEqualsOneEquivalence:
    def test_bit_identical_to_single_model_pipeline(self):
        # K=1 tracking from a batch init is the single-model update loop
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        data = rng.standard_normal(8) + rng.standard_normal((80, 2)) @ basis.T \
            + 0.01 * rng.standard_normal((80, 8))
        init = fit(data[:20], 2)
        ref = init
        for row in data:
            ref = update(ref, row)
        assert_models_equal(track(solo(init), data, DELTA).models[0], ref)


class TestNearestCentroid:
    def test_labels_by_euclidean_distance(self):
        centroids = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        pts = np.array([[1.0, 0, 0], [9.0, 0, 0], [4.9, 0, 0], [5.1, 0, 0]])
        np.testing.assert_array_equal(
            nearest_centroid(centroids, pts), [0, 1, 0, 1]
        )


class TestSerialization:
    # the settings pick the regime, and the subspaces track the sensors
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        mm = make_multimodel(rng, 3, dim=N_SENSORS)
        back = read_model(model_document(mm))
        assert back.n_regimes == 3
        np.testing.assert_array_equal(back.centroids, mm.centroids)
        for a, b in zip(back.models, mm.models):
            np.testing.assert_array_equal(a.basis, b.basis)

    def test_rejects_k_mismatch(self):
        rng = np.random.default_rng(12)
        doc = model_document(make_multimodel(rng, 2, dim=N_SENSORS))
        doc["members"].pop()  # K is the member count: one, for two centroids
        message = r"^centroids has shape \(2, 3\), expected \(1, 3\)"
        with pytest.raises(ValidationError, match=message):
            read_model(doc)
