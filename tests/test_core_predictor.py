"""Unit tests for repro.core.predictor (objective O3)."""

from collections import Counter

import numpy as np
import pytest

from repro.common.errors import NotTrainedError
from repro.core import AnswerModelFactory, DatalessPredictor, QuerySpaceQuantizer


def linear_world(v):
    """Ground truth: answer is a linear function of the query vector."""
    return 2.0 * v[0] + 0.5 * v[1] + 10.0


def train_predictor(n=200, seed=0, factory_family="linear", **kwargs):
    predictor = DatalessPredictor(
        quantizer=QuerySpaceQuantizer(n_quanta=4, warmup=16, grow_threshold=2.0),
        factory=AnswerModelFactory(factory_family),
        **kwargs,
    )
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.normal(loc=(10.0, 5.0), scale=2.0, size=2)
        predictor.observe(v, linear_world(v))
    return predictor


class TestTrainingAndPrediction:
    def test_predicts_learned_function(self):
        predictor = train_predictor()
        v = np.array([10.0, 5.0])
        prediction = predictor.predict(v)
        assert prediction.scalar == pytest.approx(linear_world(v), rel=0.05)

    def test_prediction_before_any_training_raises(self):
        predictor = DatalessPredictor()
        with pytest.raises(NotTrainedError):
            predictor.predict([0.0, 0.0])

    def test_error_estimate_populated_after_training(self):
        predictor = train_predictor()
        prediction = predictor.predict([10.0, 5.0])
        assert prediction.error_estimate is not None
        assert prediction.error_estimate < 0.1
        assert prediction.reliable

    def test_unreliable_far_from_training(self):
        predictor = train_predictor()
        prediction = predictor.predict([1000.0, -1000.0])
        assert prediction.novelty > predictor.novelty_limit
        assert not prediction.reliable

    def test_observe_returns_quantum_id(self):
        predictor = train_predictor(n=50)
        qid = predictor.observe([10.0, 5.0], linear_world([10.0, 5.0]))
        assert qid in predictor.quantum_ids()

    def test_vector_answers(self):
        predictor = DatalessPredictor(
            answer_dim=2,
            quantizer=QuerySpaceQuantizer(n_quanta=2, warmup=8),
        )
        rng = np.random.default_rng(1)
        for _ in range(60):
            v = rng.normal(size=2)
            predictor.observe(v, [v[0], v[1] * 3.0])
        prediction = predictor.predict([0.5, 0.5])
        assert prediction.value.shape == (2,)
        assert prediction.value[1] == pytest.approx(1.5, abs=0.15)

    def test_nearest_trained_quantum_serves_untrained_one(self):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(
                n_quanta=2, warmup=8, grow_threshold=0.5, max_quanta=16
            ),
        )
        rng = np.random.default_rng(2)
        # Train heavily in one region only.
        for _ in range(80):
            v = rng.normal(loc=(0.0, 0.0), scale=0.5, size=2)
            predictor.observe(v, linear_world(v))
        # A fresh far-away quantum exists but is untrained after one sample.
        predictor.observe([50.0, 50.0], linear_world([50.0, 50.0]))
        prediction = predictor.predict([50.0, 50.0])
        assert np.isfinite(prediction.scalar)


class TestMaintenanceHooks:
    def test_reset_quantum_clears_model_and_errors(self):
        predictor = train_predictor()
        qid = predictor.quantizer.assign(
            predictor._scale_probe([10.0, 5.0])
            if hasattr(predictor, "_scale_probe")
            else [10.0, 5.0]
        )
        qid = predictor.predict([10.0, 5.0]).quantum_id
        predictor.reset_quantum(qid)
        model = predictor.model_for(qid)
        assert model.n_samples == 0
        assert predictor.errors.estimate(qid) is None

    def test_reset_all(self):
        predictor = train_predictor(n=60)
        predictor.reset_all()
        with pytest.raises(NotTrainedError):
            predictor.predict([10.0, 5.0])

    def test_set_decay_applies_to_all_models(self):
        predictor = train_predictor(n=60)
        predictor.set_decay(0.1)
        for qid in predictor.quantum_ids():
            assert predictor.model_for(qid).decay_rate == 0.1


class TestFootprint:
    def test_state_bounded_as_stream_grows(self):
        # Per-quantum buffers are bounded, so once they saturate, 4x the
        # stream adds almost no state (contrast DBL's linear growth).
        large = train_predictor(n=2000, seed=3)
        xlarge = train_predictor(n=8000, seed=3)
        # 4x the stream may still spawn a few new quanta (bounded by
        # max_quanta), but growth is sublinear: < 3x state for 4x data.
        assert xlarge.state_bytes() < large.state_bytes() * 3

    def test_centroid_of_valid_quantum(self):
        predictor = train_predictor()
        qid = predictor.predict([10.0, 5.0]).quantum_id
        centroid = predictor.centroid_of(qid)
        assert centroid.shape == (2,)

    def test_centroid_of_invalid_quantum_rejected(self):
        predictor = train_predictor()
        with pytest.raises(Exception):
            predictor.centroid_of(999)


def reference_predict(predictor, vector):
    """``predict`` as the parent composed it, one public call per step.

    ``assign`` -> (borrow) -> ``model.predict`` -> ``errors.estimate`` ->
    ``novelty``, with the model evaluated one fitted scalar model at a time
    on a one-row matrix.
    """
    v = np.asarray(vector, dtype=float).ravel()
    assigned = predictor.quantizer.assign(v)
    quantum_id = assigned
    model = predictor._models.get(quantum_id)
    borrowed = False
    if model is None or not model.is_trained:
        model, quantum_id = predictor._nearest_trained(v, assigned)
        borrowed = True
    if model._dirty:
        model._refit()
    value = np.array([m.predict(v.reshape(1, -1))[0] for m in model._models])
    error = predictor.errors.estimate(quantum_id)
    novelty = predictor.quantizer.novelty(v)
    reliable = (
        not borrowed and error is not None and novelty <= predictor.novelty_limit
    )
    return value.tobytes(), quantum_id, error, novelty, reliable, borrowed


def as_tuple(prediction):
    return (
        prediction.value.tobytes(),
        prediction.quantum_id,
        prediction.error_estimate,
        prediction.novelty,
        prediction.reliable,
    )


class TestPredictIsTheReferenceComposition:
    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    def test_observe_predict_sequence_matches_golden_tuples(self, family):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(
                n_quanta=3, warmup=16, grow_threshold=1.5, max_quanta=6
            ),
            factory=AnswerModelFactory(family),
        )
        rng = np.random.default_rng(21)
        centres = np.array([[10.0, 5.0, 2.0], [60.0, 40.0, 4.0]])

        def world(v):
            return v[0] * v[1] - 3.0 * v[2] + 7.0

        checked = borrowed_seen = 0

        def check(vector):
            nonlocal checked, borrowed_seen
            golden = reference_predict(predictor, vector)
            assert as_tuple(predictor.predict(vector)) == golden[:5]
            batch = predictor.predict_batch([vector])
            assert as_tuple(batch[0]) == golden[:5]
            checked += 1
            borrowed_seen += golden[5]

        for step in range(260):
            v = centres[step % 2] + rng.normal(scale=1.0, size=3)
            predictor.observe(v, world(v))
            if step >= 40 and step % 3 == 0:
                check(centres[step % 2] + rng.normal(scale=1.5, size=3))
            if step == 150:
                # Invalidate the busiest quantum: its next queries borrow.
                busiest = max(
                    predictor.quantum_ids(),
                    key=lambda q: predictor.model_for(q).n_samples,
                )
                probe = predictor.centroid_of(busiest)
                assert predictor.predict(probe).quantum_id == busiest
                predictor.reset_quantum(busiest)
                check(probe)
                assert predictor.predict(probe).quantum_id != busiest
                assert not predictor.predict(probe).reliable
        check([1e5, -1e5, 3.0])  # far outside: unreliable, still equal
        assert checked > 70 and borrowed_seen >= 1

    def test_not_warm_and_untrained_raise_as_before(self):
        predictor = DatalessPredictor(
            quantizer=QuerySpaceQuantizer(warmup=8)
        )
        predictor.observe([1.0, 2.0], 3.0)
        with pytest.raises(NotTrainedError):
            predictor.predict([1.0, 2.0])
        assert predictor.predict_batch([[1.0, 2.0]]) == [None]


class TestModelAnswerCost:
    """What one ``predict`` computes on a frozen predictor: counted."""

    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    def test_one_search_one_distance_no_matrix_rebuild(self, family, monkeypatch):
        predictor = train_predictor(n=300, factory_family=family)
        codebook = predictor.quantizer._codebook
        rng = np.random.default_rng(22)

        def own_model_trained(p):
            model = predictor.model_for(predictor.quantizer.assign(p))
            return model is not None and model.is_trained

        # A borrowed answer also ranks the trained centroids: not counted.
        candidates = rng.normal(loc=(10.0, 5.0), scale=2.0, size=(300, 2))
        probes = [p for p in candidates if own_model_trained(p)][:100]
        assert len(probes) == 100
        for probe in probes:  # refits, estimate memos, kept matrix
            predictor.predict(probe)
        counts = Counter()
        asarray, norm, quantile = np.asarray, np.linalg.norm, np.quantile

        def counting_asarray(a, *args, **kwargs):
            if a is codebook.centers:
                counts["matrix_rebuilt"] += 1
            return asarray(a, *args, **kwargs)

        def counting_norm(x, *args, **kwargs):
            if kwargs.get("axis") == 1:
                counts["search_norms"] += 1
            elif np.ndim(x) == 1:
                counts["row_norms"] += 1
            else:
                counts["other_norms"] += 1
            return norm(x, *args, **kwargs)

        def counting_quantile(*args, **kwargs):
            counts["quantile"] += 1
            return quantile(*args, **kwargs)

        monkeypatch.setattr(np, "asarray", counting_asarray)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        monkeypatch.setattr(np, "quantile", counting_quantile)
        for probe in probes:
            predictor.predict(probe)
        assert counts == {"search_norms": 100, "row_norms": 100}
        # A learning step drops the kept matrix: the next read rebuilds once.
        predictor.observe(probes[0], linear_world(probes[0]))
        counts.clear()
        for probe in probes[:10]:
            predictor.predict(probe)
        assert counts["matrix_rebuilt"] == 1
        assert (counts["search_norms"], counts["row_norms"]) == (10, 10)
