"""Unit tests for repro.core.quantization (RT1.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.core import QuerySpaceQuantizer
from repro.ml import OnlineKMeans, StandardScaler


def feed(quantizer, vectors):
    return [quantizer.observe(v) for v in vectors]


def two_cluster_stream(n=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0, 0, 1), scale=0.3, size=(n, 3))
    b = rng.normal(loc=(50, 50, 2), scale=0.3, size=(n, 3))
    out = np.empty((2 * n, 3))
    out[0::2] = a
    out[1::2] = b
    return out


class TestWarmup:
    def test_not_warm_before_warmup_queries(self):
        q = QuerySpaceQuantizer(warmup=10)
        for v in np.random.default_rng(0).normal(size=(9, 3)):
            q.observe(v)
        assert not q.is_warm
        assert q.n_quanta == 0

    def test_warm_after_warmup(self):
        q = QuerySpaceQuantizer(warmup=10)
        feed(q, np.random.default_rng(1).normal(size=(10, 3)))
        assert q.is_warm
        assert q.n_quanta >= 1

    def test_centroids_raise_before_warm(self):
        with pytest.raises(NotTrainedError):
            QuerySpaceQuantizer().centroids

    def test_novelty_infinite_before_warm(self):
        q = QuerySpaceQuantizer()
        assert q.novelty([0.0, 0.0]) == float("inf")


class TestQuantization:
    def test_separated_interests_get_distinct_quanta(self):
        q = QuerySpaceQuantizer(n_quanta=2, warmup=16, grow_threshold=1.0)
        stream = two_cluster_stream()
        feed(q, stream)
        a_id = q.assign(np.array([0.0, 0.0, 1.0]))
        b_id = q.assign(np.array([50.0, 50.0, 2.0]))
        assert a_id != b_id

    def test_assign_does_not_learn(self):
        q = QuerySpaceQuantizer(warmup=8)
        feed(q, two_cluster_stream(n=20))
        before = q.centroids.copy()
        q.assign(np.array([100.0, 100.0, 100.0]))
        assert np.array_equal(q.centroids, before)

    def test_growth_bounded_by_max_quanta(self):
        q = QuerySpaceQuantizer(
            n_quanta=2, max_quanta=4, warmup=8, grow_threshold=0.1
        )
        rng = np.random.default_rng(3)
        feed(q, rng.uniform(-100, 100, size=(200, 2)))
        assert q.n_quanta <= 4

    def test_novelty_small_near_training_large_far(self):
        q = QuerySpaceQuantizer(warmup=16)
        feed(q, two_cluster_stream(n=50, seed=4))
        near = q.novelty(np.array([0.0, 0.0, 1.0]))
        far = q.novelty(np.array([500.0, -500.0, 99.0]))
        assert near < 1.0 < far

    def test_centroids_in_original_units(self):
        q = QuerySpaceQuantizer(n_quanta=2, warmup=16, grow_threshold=1.0)
        feed(q, two_cluster_stream(n=50, seed=5))
        centroids = q.centroids
        # One centroid near (0,0,1), another near (50,50,2).
        dists_a = np.linalg.norm(centroids - [0, 0, 1], axis=1)
        dists_b = np.linalg.norm(centroids - [50, 50, 2], axis=1)
        assert dists_a.min() < 2.0
        assert dists_b.min() < 2.0

    def test_state_bytes_positive_and_bounded(self):
        q = QuerySpaceQuantizer(n_quanta=4, max_quanta=8, warmup=8)
        feed(q, two_cluster_stream(n=100, seed=6))
        bytes_1 = q.state_bytes()
        feed(q, two_cluster_stream(n=100, seed=7))
        bytes_2 = q.state_bytes()
        assert 0 < bytes_1
        # Codebook is bounded: more data does not blow up state.
        assert bytes_2 <= bytes_1 * 2

    def test_remove_quantum_shrinks(self):
        q = QuerySpaceQuantizer(n_quanta=2, warmup=8, grow_threshold=1.0)
        feed(q, two_cluster_stream(n=20, seed=8))
        n = q.n_quanta
        q.remove_quantum(0)
        assert q.n_quanta == n - 1


def two_call_answer(quantizer, vector):
    """The parent's ``assign(v)`` then ``novelty(v)``, written out.

    Scaling goes through the 2-D validator, the centroid matrix is built
    from the list, and the two norms are the ones ``OnlineKMeans.assign``
    and ``distance_to`` took.
    """
    v = np.asarray(vector, dtype=float).ravel()
    if not quantizer.is_warm:
        return 0, float("inf")
    scaled = quantizer._scaler.transform(v.reshape(1, -1))[0]
    centers = np.asarray(quantizer._codebook.centers)
    quantum = int(np.linalg.norm(centers - scaled, axis=1).argmin())
    return quantum, float(np.linalg.norm(centers[quantum] - scaled))


def quantizer_with_centroids(centroids):
    """A warm quantizer whose (scaled) centroids are exactly these."""
    q = QuerySpaceQuantizer(n_quanta=len(centroids), warmup=2)
    q._scaler = StandardScaler().fit(np.array([[-3.0, -2.0], [3.0, 2.0]]))
    q._codebook = OnlineKMeans(n_clusters=len(centroids))
    for c in centroids:
        q._codebook.partial_fit(c)
    return q


class TestAssignNovelty:
    """The fused search is the two separate calls, bit for bit."""

    @pytest.fixture(scope="class")
    def trained(self):
        q = QuerySpaceQuantizer(n_quanta=4, max_quanta=8, warmup=16)
        feed(q, two_cluster_stream(n=80, seed=11))
        return q

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_two_call_answer(self, trained, vector):
        fused = trained.assign_novelty(vector)
        assert fused == two_call_answer(trained, vector)
        assert fused == (trained.assign(vector), trained.novelty(vector))
        assert type(fused[0]) is int and type(fused[1]) is float

    def test_far_outside_the_training_range(self, trained):
        for vector in ([1e12, -1e12, 1e9], [1e150, 0.0, 0.0], [-5e5, 7e5, 1e-9]):
            assert trained.assign_novelty(vector) == two_call_answer(
                trained, vector
            )

    def test_exact_tie_between_two_centroids_goes_to_the_first(self):
        q = quantizer_with_centroids([[-1.0, 0.0], [1.0, 0.0], [0.0, 9.0]])
        for y in (0.0, 0.5, -2.0):
            probe = q._scaler.inverse_transform(np.array([[0.0, y]]))[0]
            scaled = q._scale(probe)
            distances = np.linalg.norm(
                q._codebook.cluster_centers_ - scaled, axis=1
            )
            assert distances[0] == distances[1] == distances.min()
            assert q.assign_novelty(probe) == two_call_answer(q, probe)
            assert q.assign(probe) == 0

    def test_not_warm(self):
        q = QuerySpaceQuantizer(warmup=8)
        q.observe([1.0, 2.0])
        assert q.assign_novelty([1.0, 2.0]) == (0, float("inf"))
        ids, novelty = q.assign_novelty_batch([[1.0, 2.0], [3.0, 4.0]])
        assert ids.tolist() == [0, 0] and np.isinf(novelty).all()

    def test_batch_rows_equal_single_calls_exactly(self, trained):
        rng = np.random.default_rng(12)
        x = np.vstack(
            [
                two_cluster_stream(n=10, seed=13),
                rng.uniform(-1e6, 1e6, size=(20, 3)),
            ]
        )
        ids, novelty = trained.assign_novelty_batch(x)
        for i, row in enumerate(x):
            assert (int(ids[i]), float(novelty[i])) == trained.assign_novelty(row)
        assert np.array_equal(trained.novelty_batch(x), novelty)
        assert np.array_equal(trained.assign_batch(x), ids)

    def test_observe_scales_like_the_validator(self):
        """``observe`` absorbs the same scaled vector the parent's did."""
        ours = QuerySpaceQuantizer(n_quanta=3, warmup=8, grow_threshold=0.7)
        stream = two_cluster_stream(n=40, seed=14)
        ids = feed(ours, stream)
        reference = OnlineKMeans(
            n_clusters=3, grow_threshold=0.7, max_clusters=64
        )
        scaler = StandardScaler().fit(stream[:8])
        for row in scaler.transform(stream[:8]):
            reference.partial_fit(row)
        expected = [
            reference.partial_fit(scaler.transform(v.reshape(1, -1))[0])
            for v in stream[8:]
        ]
        assert ids[8:] == expected
        assert ours._codebook.cluster_centers_.tobytes() == np.asarray(
            reference.centers
        ).tobytes()

    def test_wrong_length_vector_is_rejected_not_broadcast(self, trained):
        for vector in ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ConfigurationError):
                trained.assign_novelty(vector)

    def test_no_caller_can_write_the_codebook(self, trained):
        with pytest.raises(ValueError):
            trained._codebook.cluster_centers_[0, 0] = 0.0
        centroids = trained.centroids
        centroids[0, 0] += 1.0  # a fresh inverse_transform: theirs to edit
        assert trained.centroids[0, 0] != centroids[0, 0]
