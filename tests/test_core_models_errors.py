"""Unit tests for repro.core.answer_models and repro.core.error."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.core import AnswerModelFactory, PrequentialErrorEstimator, QuantumModel
from repro.core.answer_models import FAMILIES


class TestAnswerModelFactory:
    def test_all_families_buildable(self):
        for family in FAMILIES:
            model = AnswerModelFactory(family).build()
            x = np.random.default_rng(0).normal(size=(20, 2))
            y = x[:, 0] * 2
            model.fit(x, y)
            assert np.all(np.isfinite(model.predict(x)))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            AnswerModelFactory("transformer")

    def test_min_samples_ordering(self):
        mins = {f: AnswerModelFactory(f).min_samples() for f in FAMILIES}
        assert mins["mean"] <= mins["linear"] <= mins["quadratic"]

    def test_mean_model_predicts_mean(self):
        model = AnswerModelFactory("mean").build()
        model.fit(np.zeros((3, 1)), [1.0, 2.0, 3.0])
        assert model.predict([[0.0]])[0] == pytest.approx(2.0)

    def test_quadratic_beats_linear_on_curvature(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(100, 1))
        y = x[:, 0] ** 2
        lin = AnswerModelFactory("linear").build()
        quad = AnswerModelFactory("quadratic").build()
        lin.fit(x, y)
        quad.fit(x, y)
        lin_err = np.abs(lin.predict(x) - y).mean()
        quad_err = np.abs(quad.predict(x) - y).mean()
        assert quad_err < lin_err / 10


class TestQuantumModel:
    def factory(self):
        return AnswerModelFactory("linear")

    def test_not_trained_until_min_samples(self):
        model = QuantumModel(self.factory())
        model.add([0.0, 0.0], 1.0)
        assert not model.is_trained
        with pytest.raises(NotTrainedError):
            model.predict([0.0, 0.0])

    def test_trains_and_predicts_linear_map(self):
        model = QuantumModel(self.factory())
        rng = np.random.default_rng(2)
        for _ in range(30):
            v = rng.normal(size=2)
            model.add(v, 3.0 * v[0] - v[1] + 1.0)
        pred = model.predict([1.0, 1.0])
        assert pred[0] == pytest.approx(3.0, abs=0.15)

    def test_vector_answers(self):
        model = QuantumModel(self.factory(), answer_dim=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=2)
            model.add(v, [v[0], -v[1]])
        pred = model.predict([2.0, 3.0])
        assert pred.shape == (2,)
        assert pred[0] == pytest.approx(2.0, abs=0.15)
        assert pred[1] == pytest.approx(-3.0, abs=0.15)

    def test_answer_dim_mismatch_rejected(self):
        model = QuantumModel(self.factory(), answer_dim=2)
        with pytest.raises(ConfigurationError):
            model.add([0.0], 1.0)

    def test_buffer_bounded(self):
        model = QuantumModel(self.factory(), max_buffer=16)
        for i in range(100):
            model.add([float(i)], float(i))
        assert model.n_samples == 16

    def test_reset_clears_state(self):
        model = QuantumModel(self.factory())
        for i in range(10):
            model.add([float(i)], float(i))
        model.reset()
        assert model.n_samples == 0
        assert not model.is_trained

    def test_refit_is_lazy(self):
        model = QuantumModel(self.factory())
        for i in range(10):
            model.add([float(i)], 2.0 * i)
        model.predict([0.0])
        assert not model._dirty
        model.add([99.0], 198.0)
        assert model._dirty

    def test_decay_rate_prefers_recent_samples(self):
        model = QuantumModel(self.factory(), max_buffer=512)
        # Old regime: y = x; new regime: y = 10x.
        for i in range(50):
            model.add([float(i % 5)], float(i % 5))
        for i in range(50):
            model.add([float(i % 5)], 10.0 * (i % 5))
        model.decay_rate = 0.2
        aged = model.predict([4.0])[0]
        model.decay_rate = 0.0
        model._dirty = True
        flat = model.predict([4.0])[0]
        assert aged > flat  # aged fit leans toward the recent regime

    def test_state_bytes_grows_with_buffer(self):
        model = QuantumModel(self.factory())
        model.add([0.0, 0.0], 1.0)
        small = model.state_bytes()
        for i in range(20):
            model.add([float(i), 0.0], 1.0)
        assert model.state_bytes() > small


class TestPrequentialErrorEstimator:
    def test_no_estimate_until_min_observations(self):
        est = PrequentialErrorEstimator(min_observations=5)
        for _ in range(4):
            est.record(0, 1.0, 1.0)
        assert est.estimate(0) is None
        est.record(0, 1.0, 1.0)
        assert est.estimate(0) == pytest.approx(0.0)

    def test_estimate_is_quantile_of_relative_errors(self):
        est = PrequentialErrorEstimator(quantile=0.5, min_observations=3)
        est.record(0, 90.0, 100.0)   # rel err 0.1
        est.record(0, 80.0, 100.0)   # 0.2
        est.record(0, 70.0, 100.0)   # 0.3
        assert est.estimate(0) == pytest.approx(0.2)

    def test_relative_floor_guards_small_answers(self):
        est = PrequentialErrorEstimator(relative_floor=10.0)
        rel = est.record(0, 5.0, 0.0)
        assert rel == pytest.approx(0.5)

    def test_window_bounds_memory_and_adapts(self):
        est = PrequentialErrorEstimator(window=8, min_observations=3)
        for _ in range(20):
            est.record(0, 0.0, 100.0)  # terrible
        for _ in range(8):
            est.record(0, 100.0, 100.0)  # perfect, fills window
        assert est.estimate(0) == pytest.approx(0.0)

    def test_per_quantum_isolation(self):
        est = PrequentialErrorEstimator(min_observations=1)
        est.record(0, 100.0, 100.0)
        est.record(1, 0.0, 100.0)
        assert est.estimate(0) == pytest.approx(0.0)
        assert est.estimate(1) == pytest.approx(1.0)

    def test_vector_answers_use_norms(self):
        est = PrequentialErrorEstimator(min_observations=1)
        rel = est.record(0, np.array([3.0, 0.0]), np.array([0.0, 4.0]))
        assert rel == pytest.approx(np.sqrt(9 + 16) / 4.0)

    def test_forget_clears_history(self):
        est = PrequentialErrorEstimator(min_observations=1)
        est.record(0, 1.0, 1.0)
        est.forget(0)
        assert est.estimate(0) is None
        assert est.n_observations(0) == 0

    def test_recent_vs_historical_mean(self):
        est = PrequentialErrorEstimator(window=64, min_observations=1)
        for _ in range(20):
            est.record(0, 100.0, 100.0)
        for _ in range(4):
            est.record(0, 0.0, 100.0)
        assert est.recent_mean(0, last=4) == pytest.approx(1.0)
        assert est.historical_mean(0) < 0.5

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            PrequentialErrorEstimator(quantile=0.3)

    _QUANTA = st.integers(0, 3)
    _VALUES = st.floats(-1e3, 1e3, allow_nan=False)

    @given(
        st.lists(
            st.tuples(st.just("record"), _QUANTA, _VALUES, _VALUES)
            | st.tuples(st.just("forget"), _QUANTA)
            | st.tuples(st.just("estimate"), _QUANTA),
            max_size=120,
        ),
        st.sampled_from([0.5, 0.8, 0.9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_estimate_is_the_quantile_of_the_live_window(self, steps, q):
        """The remembered quantile never outlives the window it was read off."""
        est = PrequentialErrorEstimator(quantile=q, window=8, min_observations=3)
        windows = {}
        for op, quantum, *args in steps:
            if op == "record":
                rel = est.record(quantum, *args)
                windows.setdefault(quantum, deque(maxlen=8)).append(rel)
            elif op == "forget":
                est.forget(quantum)
                windows.pop(quantum, None)
            for _ in range(2):  # a repeat reads the memo: same answer
                got = est.estimate(quantum)
                window = windows.get(quantum, ())
                if len(window) < 3:
                    assert got is None
                else:
                    assert got == float(np.quantile(np.asarray(window), q))
