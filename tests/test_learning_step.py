"""What one learning step computes: running ridge moments, the sorted
residual window and the remembered model evaluation (repro.core)."""

import math
import pickle
from collections import deque

import numpy as np
import pytest

from repro.common.errors import NotTrainedError
from repro.core import (
    AnswerModelFactory,
    DatalessPredictor,
    PrequentialErrorEstimator,
    QuantumModel,
    QuerySpaceQuantizer,
)
from repro.core.error import _linear_quantile
from repro.ml.linear import RidgeRegression

TOLERANCE = 1e-9


def from_scratch(model, probes):
    """The buffer refit the parent ran: one ``RidgeRegression.fit`` per dim."""
    features = model.factory.features(np.asarray(model._x))
    y = np.asarray(model._y)
    weights = model._weights()
    columns = []
    for dim in range(model.answer_dim):
        ridge = RidgeRegression(model.factory.ridge_alpha)
        ridge.fit(features, y[:, dim], sample_weight=weights)
        columns.append(ridge.predict(model.factory.features(probes)))
    return np.array(columns).T


def assert_close(model, probes):
    got = model.predict_batch(probes)
    want = from_scratch(model, probes)
    assert np.all(np.abs(got - want) <= TOLERANCE * np.abs(want))


def world(v, answer_dim, scale):
    linear = 1.5 * v[0] - 2.0 * v[1] + 0.5 * v[2]
    curved = linear + 3.0 * (v[0] * v[2]) / scale
    return [curved, v[1] - v[2]][:answer_dim]


class TestRunningMoments:
    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    @pytest.mark.parametrize("answer_dim", [1, 2])
    @pytest.mark.parametrize("scale", [1.0, 3e2, 5e5])
    def test_incremental_fit_tracks_a_from_scratch_fit(
        self, family, answer_dim, scale
    ):
        rng = np.random.default_rng(int(scale) + answer_dim)
        model = QuantumModel(
            AnswerModelFactory(family), answer_dim=answer_dim, max_buffer=16
        )
        centre = rng.uniform(0.2, 1.0, size=3) * scale

        def sample(n):
            return centre + rng.normal(scale=0.05 * scale, size=(n, 3))

        steps = 16 * 14  # 12 x max_buffer evictions around the reset
        checked = 0
        for step in range(steps):
            if step == 60:
                model.reset()
            if step == 120:
                model.decay_rate = 0.05  # what DatalessPredictor.set_decay does
            if step == 170:
                model.decay_rate = 0.2  # a second change, decay already on
            v = sample(1)[0]
            model.add(v, world(v, answer_dim, scale))
            # Fewer rows than features leave the fit to alpha = 1, which is
            # nothing at scale 5e5: any rounding (a from-scratch fit's own
            # summation order included) moves such an answer by percent.
            determined = model.n_samples > model.factory.features(v[None]).shape[1]
            if determined and step % 5 == 0:
                assert_close(model, sample(4))
                checked += 1
        assert checked > 30

    def test_moments_equal_the_buffer_statistics(self):
        rng = np.random.default_rng(5)
        model = QuantumModel(AnswerModelFactory("quadratic"), max_buffer=16)
        for _ in range(200):
            v = rng.normal(loc=100.0, size=2)
            model.add(v, v[0] * v[1])
        model.predict([100.0, 100.0])
        m = model._moments
        features = model.factory.features(np.asarray(model._x))
        np.testing.assert_allclose(m.f_mean, features.mean(axis=0), rtol=1e-12)
        centred = features - features.mean(axis=0)
        np.testing.assert_allclose(
            m.cff, centred.T @ centred, rtol=1e-8, atol=1e-8 * np.abs(m.cff).max()
        )
        assert m.weight == pytest.approx(16.0)

    def test_predictor_set_decay_midway(self):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(n_quanta=2, warmup=8),
            factory=AnswerModelFactory("linear"),
        )
        rng = np.random.default_rng(6)
        for step in range(700):
            if step == 300:
                predictor.set_decay(0.1)
            if step == 500:
                predictor.set_decay(0.02)
            v = rng.normal(loc=(5.0, 5.0), size=2)
            predictor.observe(v, (3.0 if step < 400 else 5.0) * v[0] + v[1])
        for quantum_id in predictor.quantum_ids():
            model = predictor.model_for(quantum_id)
            if model.is_trained:
                assert_close(model, rng.normal(loc=(5.0, 5.0), size=(3, 2)))

    def test_gbm_and_mean_keep_their_batch_refit(self):
        for family in ("gbm", "mean"):
            model = QuantumModel(AnswerModelFactory(family))
            for i in range(20):
                model.add([float(i)], float(i))
            model.predict([3.0])
            assert model._moments is None

    def test_state_bytes_count_the_moments(self):
        model = QuantumModel(AnswerModelFactory("quadratic"), answer_dim=2)
        for i in range(12):
            model.add([float(i), float(i % 3)], [float(i), 1.0])
        before = model.state_bytes()
        model.predict([1.0, 1.0])  # builds the moments and fits
        p, m = 5, 2  # (a, b, a^2, b^2, ab) features, two answers
        moments = 8 * (1 + p + m + p * p + p * m)
        assert model.state_bytes() == before + moments + 8 * m * (p + 1)


class TestSortedWindowQuantile:
    def test_linear_quantile_is_numpy_bitwise_over_random_windows(self):
        rng = np.random.default_rng(7)
        for trial in range(3000):
            n = int(rng.integers(5, 65))
            q = float(rng.uniform(0.5, 0.99))
            if trial % 2:
                window = list(rng.normal(size=n))
            else:  # heavy ties
                window = list(rng.integers(0, 4, size=n) / 2.0)
            want = float(np.quantile(np.asarray(window), q))
            got = _linear_quantile(sorted(window), n, q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_signed_zeros_compare_equal(self):
        """A window mixing -0.0 and +0.0 gives the value numpy gives; the
        sign of a zero result follows numpy's partition order, not ours."""
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(5, 65))
            q = float(rng.uniform(0.5, 0.99))
            window = list(rng.choice([0.0, -0.0, 1.0, 0.25], size=n))
            assert _linear_quantile(sorted(window), n, q) == float(
                np.quantile(np.asarray(window), q)
            )

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_estimator_stream_matches_numpy_including_nan(self, q):
        window = 16
        est = PrequentialErrorEstimator(
            quantile=q, window=window, min_observations=5
        )
        reference = deque(maxlen=window)
        rng = np.random.default_rng(9)
        values = [0.0, 0.5, 1.0, 2.0, float("nan")]
        nan_reads = 0
        for step in range(400):
            if step % 97 == 0:
                predicted = float(rng.choice(values))  # ties and a NaN
            else:
                predicted = float(rng.normal())
            rel = est.record(0, predicted, 0.0)  # relative_floor 1: |pred|
            reference.append(rel)
            got = est.estimate(0)
            if len(reference) < 5:
                assert got is None
                continue
            want = float(np.quantile(np.asarray(reference), q))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            nan_reads += math.isnan(got)
        assert 0 < nan_reads < 300

    def test_a_nan_window_reads_nan_until_the_nan_leaves(self):
        est = PrequentialErrorEstimator(quantile=0.9, window=6, min_observations=1)
        est.record(0, float("nan"), 0.0)
        for _ in range(5):
            est.record(0, 0.5, 0.0)
        assert math.isnan(est.estimate(0))
        est.record(0, 0.25, 0.0)  # the NaN is evicted
        assert est.estimate(0) == float(np.quantile([0.5] * 5 + [0.25], 0.9))

    def test_sorted_windows_are_rebuilt_on_unpickle(self):
        est = PrequentialErrorEstimator(window=8, min_observations=1)
        for value in (3.0, 1.0, float("nan"), 2.0):
            est.record(1, value, 0.0)
        state = pickle.loads(pickle.dumps(est))
        assert "_sorted" not in est.__getstate__()
        assert state._sorted == {1: [1.0, 2.0, 3.0]}
        assert math.isnan(state.estimate(1))


class TestOneEvaluationPerFallback:
    def predictor(self):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(n_quanta=1, warmup=8),
            factory=AnswerModelFactory("linear"),
        )
        rng = np.random.default_rng(10)
        for _ in range(40):
            v = rng.normal(loc=(5.0, 5.0), size=2)
            predictor.observe(v, 2.0 * v[0] - v[1])
        return predictor

    def test_a_fallback_evaluates_the_model_once(self, monkeypatch):
        predictor = self.predictor()
        evaluations = []
        real = QuantumModel.predict_batch

        def counting(model, vectors):
            evaluations.append(np.array(vectors, copy=True))
            return real(model, vectors)

        monkeypatch.setattr(QuantumModel, "predict_batch", counting)
        recorded = []
        record = predictor.errors.record

        def recording(quantum_id, predicted, actual):
            recorded.append(predicted.copy())
            return record(quantum_id, predicted, actual)

        monkeypatch.setattr(predictor.errors, "record", recording)
        probe = np.array([5.5, 4.5])
        served = predictor.predict(probe)  # the serve-time evaluation
        predictor.observe(probe, 7.0)  # the prequential step reuses it
        assert len(evaluations) == 1
        assert recorded[0].tobytes() == served.value.tobytes()
        # The add invalidates the memo: the next read evaluates again.
        again = predictor.predict(probe)
        assert len(evaluations) == 2
        assert again.value.tobytes() != served.value.tobytes()

    def test_the_remembered_row_is_not_the_returned_array(self):
        predictor = self.predictor()
        model = predictor.model_for(0)
        first = model.predict([5.0, 5.0])
        first[0] = -1.0  # a caller writing into its answer
        assert model.predict([5.0, 5.0])[0] != -1.0

    def test_memo_never_outlives_a_refit(self):
        model = QuantumModel(AnswerModelFactory("linear"))
        for i in range(10):
            model.add([float(i)], 2.0 * i)
        before = model.predict([3.0])
        model.add([3.0], 100.0)
        model.predict_batch([[0.0]])  # refits without going through predict
        assert model.predict([3.0]).tobytes() != before.tobytes()


class TestResetQuantum:
    """What an invalidated quantum keeps: nothing it could answer from."""

    def predictor(self, *centres):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(
                n_quanta=len(centres), max_quanta=len(centres), warmup=8
            ),
            factory=AnswerModelFactory("linear"),
        )
        rng = np.random.default_rng(11)
        for step in range(60 * len(centres)):
            v = rng.normal(loc=centres[step % len(centres)], size=2)
            predictor.observe(v, 2.0 * v[0] - v[1])
        return predictor

    def test_a_reset_quantum_never_answers_its_own_queries(self):
        predictor = self.predictor((0.0, 0.0), (20.0, 20.0))
        probe = np.array([20.5, 19.5])
        own = predictor.predict(probe).quantum_id
        assert all(predictor.model_for(q).is_trained for q in (0, 1))
        predictor.reset_quantum(own)
        for answer in (predictor.predict(probe), predictor.predict_batch([probe])[0]):
            assert answer.quantum_id != own and not answer.reliable

        alone = self.predictor((20.0, 20.0))
        alone.predict(probe)
        alone.reset_quantum(0)
        with pytest.raises(NotTrainedError):
            alone.predict(probe)
        assert alone.predict_batch([probe]) == [None]

    def test_a_reset_model_keeps_no_samples_moments_or_memo(self):
        predictor = self.predictor((5.0, 5.0))
        model = predictor.model_for(0)
        predictor.predict([1.0, 2.0])  # fits, builds moments, remembers
        assert model._moments is not None and model._last is not None
        predictor.reset_quantum(0)
        assert model.n_samples == 0 and not model.is_trained
        assert model._moments is None and model._last is None

    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    def test_a_refilled_model_equals_a_fresh_one(self, family):
        rng = np.random.default_rng(12)
        model = QuantumModel(AnswerModelFactory(family), max_buffer=16)
        for _ in range(40):  # evictions, moments and a memo to forget
            v = rng.normal(loc=3.0, size=2)
            model.add(v, world(np.append(v, 1.0), 1, 1.0))
            if model.is_trained:
                model.predict(v)
        model.reset()
        fresh = QuantumModel(AnswerModelFactory(family), max_buffer=16)
        for _ in range(12):  # k < max_buffer, decay off
            v = rng.normal(loc=3.0, size=2)
            answer = world(np.append(v, 1.0), 1, 1.0)
            model.add(v, answer)
            fresh.add(v, answer)
        probes = rng.normal(loc=3.0, size=(5, 2))
        assert model.predict_batch(probes).tobytes() == fresh.predict_batch(probes).tobytes()
        assert model.predict(probes[0]).tobytes() == fresh.predict(probes[0]).tobytes()
