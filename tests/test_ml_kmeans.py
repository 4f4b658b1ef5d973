"""Unit tests for repro.ml.kmeans (batch and online)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.ml import KMeans, OnlineKMeans


def three_blobs(seed=0, n=60):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            rng.normal(loc=(0, 0), scale=0.5, size=(n, 2)),
            rng.normal(loc=(10, 10), scale=0.5, size=(n, 2)),
            rng.normal(loc=(-10, 10), scale=0.5, size=(n, 2)),
        ]
    )


class TestKMeans:
    def test_separated_blobs_recovered(self):
        x = three_blobs()
        model = KMeans(n_clusters=3, seed=1).fit(x)
        labels = model.predict(x)
        # Each blob should be internally homogeneous.
        for i in range(3):
            blob = labels[i * 60 : (i + 1) * 60]
            assert len(set(blob.tolist())) == 1

    def test_inertia_decreases_with_more_clusters(self):
        x = three_blobs(seed=2)
        inertia = [
            KMeans(n_clusters=k, seed=3).fit(x).inertia_ for k in (1, 2, 3)
        ]
        assert inertia[0] > inertia[1] > inertia[2]

    def test_deterministic_given_seed(self):
        x = three_blobs(seed=4)
        a = KMeans(n_clusters=3, seed=5).fit(x).cluster_centers_
        b = KMeans(n_clusters=3, seed=5).fit(x).cluster_centers_
        assert np.array_equal(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            KMeans(2).predict([[0.0, 0.0]])

    def test_fewer_samples_than_clusters_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_duplicate_points_handled(self):
        x = np.ones((20, 2))
        model = KMeans(n_clusters=2, seed=0).fit(x)
        assert model.inertia_ == pytest.approx(0.0)

    def test_fit_predict_shape(self):
        x = three_blobs(seed=6)
        labels = KMeans(n_clusters=3, seed=0).fit_predict(x)
        assert labels.shape == (180,)
        assert set(labels.tolist()) <= {0, 1, 2}


class TestOnlineKMeans:
    def test_seeds_first_samples_as_centroids(self):
        model = OnlineKMeans(n_clusters=3)
        for v in ([0, 0], [10, 10], [-10, 10]):
            model.partial_fit(v)
        assert model.n_active == 3

    def test_centroid_tracks_stream_mean(self):
        model = OnlineKMeans(n_clusters=1)
        rng = np.random.default_rng(0)
        points = rng.normal(loc=5.0, size=(500, 2))
        for p in points:
            model.partial_fit(p)
        assert np.allclose(
            model.cluster_centers_[0], points.mean(axis=0), atol=0.2
        )

    def test_growth_spawns_new_quantum_for_far_point(self):
        model = OnlineKMeans(n_clusters=1, grow_threshold=5.0, max_clusters=4)
        model.partial_fit([0.0, 0.0])
        model.partial_fit([0.1, 0.1])
        assert model.n_active == 1
        model.partial_fit([100.0, 100.0])
        assert model.n_active == 2

    def test_growth_respects_capacity(self):
        model = OnlineKMeans(n_clusters=1, grow_threshold=0.1, max_clusters=2)
        for v in ([0, 0], [10, 10], [20, 20], [30, 30]):
            model.partial_fit(v)
        assert model.n_active == 2

    def test_assign_does_not_mutate(self):
        model = OnlineKMeans(n_clusters=2)
        model.partial_fit([0.0, 0.0])
        model.partial_fit([10.0, 10.0])
        before = model.cluster_centers_.copy()
        assert model.assign([9.0, 9.0]) == 1
        assert np.array_equal(model.cluster_centers_, before)

    def test_decay_allows_drift_tracking(self):
        tracking = OnlineKMeans(n_clusters=1, decay=0.9)
        frozen = OnlineKMeans(n_clusters=1, decay=1.0)
        for v in np.zeros((200, 1)):
            tracking.partial_fit(v)
            frozen.partial_fit(v)
        for v in np.full((50, 1), 10.0):
            tracking.partial_fit(v)
            frozen.partial_fit(v)
        assert tracking.cluster_centers_[0][0] > frozen.cluster_centers_[0][0]

    def test_remove_quantum(self):
        model = OnlineKMeans(n_clusters=2)
        model.partial_fit([0.0])
        model.partial_fit([10.0])
        model.remove(0)
        assert model.n_active == 1
        with pytest.raises(IndexError):
            model.remove(5)

    def test_empty_model_raises(self):
        with pytest.raises(NotTrainedError):
            OnlineKMeans().cluster_centers_

    def test_invalid_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            OnlineKMeans(decay=0.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_assignment_always_within_active_range(self, values):
        model = OnlineKMeans(n_clusters=4, grow_threshold=10.0, max_clusters=8)
        for v in values:
            idx = model.partial_fit([v])
            assert 0 <= idx < model.n_active


class CodebookMachine(RuleBasedStateMachine):
    """The kept centroid matrix is the centroid list, whatever happened."""

    vectors = st.lists(
        st.floats(-20, 20, allow_nan=False), min_size=2, max_size=2
    )

    @initialize(grow=st.sampled_from([None, 4.0]))
    def build(self, grow):
        # ``None`` seeds the first three samples and then only updates;
        # 4.0 grows on far samples, up to six centroids, and updates.
        self.model = OnlineKMeans(
            n_clusters=3, grow_threshold=grow, max_clusters=6, decay=0.95
        )

    @rule(v=vectors)
    def partial_fit(self, v):
        assert 0 <= self.model.partial_fit(v) < self.model.n_active

    @precondition(lambda self: self.model.n_active)
    @rule(data=st.data())
    def remove(self, data):
        self.model.remove(
            data.draw(st.integers(0, self.model.n_active - 1), label="index")
        )

    @rule()
    def pickle_round_trip(self):
        blob = pickle.dumps(self.model)
        assert b"_matrix" not in blob
        self.model = pickle.loads(blob)

    @precondition(lambda self: self.model.n_active)
    @rule(v=vectors)
    def search(self, v):
        model = self.model
        winner, distance = model.assign_distance(v)
        assert winner == model.assign(v)
        assert distance == model.distance_to(v, winner)
        # ...and both are the parent's expressions on the plain list.
        centers, point = np.asarray(model.centers), np.asarray(v, dtype=float)
        assert winner == int(np.linalg.norm(centers - point, axis=1).argmin())
        assert distance == float(np.linalg.norm(centers[winner] - point))

    @invariant()
    def matrix_is_the_list(self):
        model = self.model
        if not model.n_active:
            with pytest.raises(NotTrainedError):
                model.cluster_centers_
            return
        kept = model.cluster_centers_
        assert kept.tobytes() == np.asarray(model.centers).tobytes()
        assert kept.shape == (model.n_active, 2)
        assert model.cluster_centers_ is kept
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0


CodebookMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestCodebookMachine = CodebookMachine.TestCase


class TestKeptMatrix:
    def test_blob_without_the_attribute_restores_and_predicts(self):
        """The parent pickled a plain ``__dict__`` with no ``_matrix``."""
        model = OnlineKMeans(n_clusters=2)
        for v in ([0.0, 0.0], [10.0, 10.0], [9.0, 9.0]):
            model.partial_fit(v)
        model.cluster_centers_  # fills the kept matrix
        assert "_matrix" in model.__dict__
        state = model.__getstate__()
        assert sorted(state) == [
            "centers", "counts", "decay", "grow_threshold", "max_clusters",
            "n_clusters",
        ]
        old = OnlineKMeans.__new__(OnlineKMeans)
        old.__dict__.update(state)
        restored = pickle.loads(pickle.dumps(old))
        assert "_matrix" not in restored.__dict__
        assert restored.assign([8.0, 8.0]) == 1
        assert restored.assign_distance([8.0, 8.0]) == model.assign_distance(
            [8.0, 8.0]
        )
        assert restored.partial_fit([0.5, 0.5]) == 0
        assert restored.cluster_centers_[0].tolist() == [0.25, 0.25]

    def test_a_reader_holding_the_old_matrix_keeps_its_bytes(self):
        model = OnlineKMeans(n_clusters=2)
        model.partial_fit([0.0])
        model.partial_fit([10.0])
        held = model.cluster_centers_
        before = held.tobytes()
        model.partial_fit([1.0])
        assert held.tobytes() == before
        assert model.cluster_centers_ is not held
