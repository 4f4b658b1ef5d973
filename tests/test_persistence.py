"""Tests for learned-state persistence (repro.core.persistence)."""

import io
import pickle

import numpy as np
import pytest

from repro.baselines import ExactEngine
from repro.cluster import ClusterTopology, DistributedStore
from repro.common.errors import ConfigurationError
from repro.core import (
    AgentConfig,
    AnswerModelFactory,
    SEAAgent,
    load_agent_models,
    load_predictor,
    save_agent_models,
    save_predictor,
)
from repro.core.predictor import DatalessPredictor
from repro.core.quantization import QuerySpaceQuantizer
from repro.data import InterestProfile, WorkloadGenerator, gaussian_mixture_table
from repro.queries import Count


def trained_predictor(seed=0, family="linear"):
    predictor = DatalessPredictor(
        quantizer=QuerySpaceQuantizer(n_quanta=4, warmup=16),
        factory=AnswerModelFactory(family),
    )
    rng = np.random.default_rng(seed)
    for _ in range(120):
        v = rng.normal(loc=(5.0, 5.0), size=2)
        predictor.observe(v, 3.0 * v[0] + v[1])
    return predictor


class TestPredictorRoundtrip:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        predictor = trained_predictor()
        path = str(tmp_path / "model.sea")
        n_bytes = save_predictor(predictor, path)
        assert n_bytes > 100
        restored = load_predictor(path)
        probe = np.array([5.0, 5.0])
        original = predictor.predict(probe)
        loaded = restored.predict(probe)
        assert loaded.scalar == pytest.approx(original.scalar)
        assert loaded.error_estimate == pytest.approx(original.error_estimate)
        assert loaded.quantum_id == original.quantum_id

    def test_roundtrip_via_file_object(self):
        predictor = trained_predictor(seed=1)
        buffer = io.BytesIO()
        save_predictor(predictor, buffer)
        buffer.seek(0)
        restored = load_predictor(buffer)
        assert restored.n_observed == predictor.n_observed

    def test_restored_predictor_keeps_learning(self, tmp_path):
        predictor = trained_predictor(seed=2)
        path = str(tmp_path / "model.sea")
        save_predictor(predictor, path)
        restored = load_predictor(path)
        before = restored.n_observed
        restored.observe([5.0, 5.0], 20.0)
        assert restored.n_observed == before + 1

    def test_blob_written_before_the_estimate_memo_existed_restores(self):
        """An old file has no ``_estimates``; a new one never carries it."""
        predictor = trained_predictor(seed=4)
        errors = predictor.errors
        quantum = max(predictor.quantum_ids(), key=errors.n_observations)
        before = errors.estimate(quantum)  # fills the memo
        assert before is not None
        del errors.__dict__["_estimates"]  # the parent commit's shape
        buffer = io.BytesIO()
        save_predictor(predictor, buffer)
        buffer.seek(0)
        restored = load_predictor(buffer).errors
        assert restored.estimate(quantum) == before
        restored.record(quantum, 0.0, 100.0)  # one terrible residual
        window = np.asarray(restored._residuals[quantum])
        assert restored.estimate(quantum) == float(
            np.quantile(window, restored.quantile)
        )
        assert restored.estimate(quantum) != before

    def test_estimate_memo_is_not_pickled(self):
        predictor = trained_predictor(seed=5)
        for quantum in predictor.quantum_ids():
            predictor.errors.estimate(quantum)
        assert predictor.errors._estimates
        state = pickle.loads(pickle.dumps(predictor.errors)).__dict__
        assert state["_estimates"] == {}
        assert state["_residuals"] == predictor.errors._residuals

    def test_kept_matrix_and_pair_memo_never_reach_a_blob(self):
        """Derived state is rebuilt by its first reader, not shipped."""
        predictor = trained_predictor(seed=6, family="quadratic")
        codebook = predictor.quantizer._codebook
        probe = np.array([5.0, 5.0])
        predictor.predict(probe)  # the lazy refit is real state: do it first
        codebook.__dict__.pop("_matrix", None)  # the parent commit's shape
        cold = io.BytesIO()
        save_predictor(predictor, cold)
        before = predictor.predict(probe)  # fills matrix, memo, pair indices
        assert "_matrix" in codebook.__dict__
        warm = io.BytesIO()
        save_predictor(predictor, warm)
        assert warm.getvalue() == cold.getvalue()
        for name in (b"_matrix", b"_pair_columns", b"triu"):
            assert name not in warm.getvalue()

        warm.seek(0)
        restored = load_predictor(warm)
        assert "_matrix" not in restored.quantizer._codebook.__dict__
        after = restored.predict(probe)
        assert after.value.tobytes() == before.value.tobytes()
        assert (after.quantum_id, after.error_estimate, after.novelty) == (
            before.quantum_id, before.error_estimate, before.novelty
        )
        # ...keeps learning (the codebook moves, the kept matrix follows)...
        held = restored.quantizer._codebook.cluster_centers_
        restored.observe(probe, 20.0)
        predictor.observe(probe, 20.0)
        assert restored.quantizer._codebook.cluster_centers_ is not held
        assert (
            restored.predict(probe).value.tobytes()
            == predictor.predict(probe).value.tobytes()
        )
        # ...and re-saves: the second generation still answers as the twin.
        again = io.BytesIO()
        save_predictor(restored, again)
        assert b"_matrix" not in again.getvalue()
        again.seek(0)
        assert (
            load_predictor(again).predict(probe).value.tobytes()
            == predictor.predict(probe).value.tobytes()
        )

    def test_state_bytes_do_not_count_the_kept_matrix(self):
        predictor = trained_predictor(seed=7)
        quantizer = predictor.quantizer
        quantizer._codebook.__dict__.pop("_matrix", None)
        cold = predictor.state_bytes()
        predictor.predict([5.0, 5.0])
        assert predictor.state_bytes() == cold
        assert quantizer.state_bytes() == quantizer.n_quanta * (2 * 8 + 8)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sea"
        path.write_bytes(b"NOT-A-MODEL-FILE")
        with pytest.raises(ConfigurationError, match="magic"):
            load_predictor(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        store.put_table(gaussian_mixture_table(500, seed=3, name="data"))
        agent = SEAAgent(ExactEngine(store))
        path = str(tmp_path / "agent.sea")
        save_agent_models(agent, path)
        with pytest.raises(ConfigurationError, match="predictor"):
            load_predictor(path)


class TestAgentModelsRoundtrip:
    def test_new_agent_serves_from_restored_models(self, tmp_path):
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        table = gaussian_mixture_table(15000, dims=("x0", "x1"), seed=4,
                                       name="data")
        store.put_table(table, partitions_per_node=2)
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 2, seed=5, hotspot_scale=2.0,
            extent_range=(4, 9),
        )
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=6
        )
        veteran = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=300, error_threshold=0.25),
        )
        for query in workload.batch(500):
            veteran.submit(query)
        path = str(tmp_path / "models.sea")
        save_agent_models(veteran, path)

        # A fresh agent (zero training budget) restores and serves.
        rookie = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=0, error_threshold=0.25),
        )
        n_loaded = load_agent_models(rookie, path)
        assert n_loaded == 1
        served = [rookie.submit(q) for q in workload.batch(150)]
        assert any(r.mode == "predicted" for r in served)

    def test_restored_models_keep_drift_protection(self, tmp_path):
        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        store.put_table(gaussian_mixture_table(2000, seed=7, name="data"))
        agent = SEAAgent(ExactEngine(store))
        path = str(tmp_path / "m.sea")
        save_agent_models(agent, path)
        fresh = SEAAgent(ExactEngine(store))
        load_agent_models(fresh, path)
        # Drift detectors exist for every restored signature.
        assert set(fresh._drift) >= set(fresh._predictors)


class TestLearningStateRoundtrip:
    """The running ridge moments travel with a blob; an old blob rebuilds."""

    def test_loaded_agent_predicts_and_learns_bitwise_as_the_saved_one(self):
        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        table = gaussian_mixture_table(6000, dims=("x0", "x1"), seed=8, name="data")
        store.put_table(table)
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 2, seed=9, extent_range=(4, 9)
        )
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=10
        )
        veteran = SEAAgent(ExactEngine(store), AgentConfig(training_budget=250))
        for query in workload.batch(250):
            veteran.submit(query)
        buffer = io.BytesIO()
        save_agent_models(veteran, buffer)  # quanta still dirty: refit later
        buffer.seek(0)
        rookie = SEAAgent(ExactEngine(store))
        load_agent_models(rookie, buffer)
        (signature,) = veteran._predictors
        old, new = veteran._predictors[signature], rookie._predictors[signature]

        def values(predictor, queries):
            return [predictor.predict(q.vector()).value.tobytes() for q in queries]

        probes = workload.batch(40)
        assert values(new, probes) == values(old, probes)
        for query in workload.batch(60):  # both keep learning the same pairs
            answer, _ = ExactEngine(store).execute(query)
            old.observe(query.vector(), answer)
            new.observe(query.vector(), answer)
        assert values(new, probes) == values(old, probes)

    def test_blob_written_before_the_running_moments_existed_restores(self):
        predictor = trained_predictor(seed=11, family="quadratic")
        parent = pickle.loads(pickle.dumps(predictor))
        for quantum_id in parent.quantum_ids():
            model = parent.model_for(quantum_id)
            for name in ("_moments", "_last"):
                model.__dict__.pop(name, None)  # the parent commit's shape
        buffer = io.BytesIO()
        save_predictor(parent, buffer)
        buffer.seek(0)
        restored = load_predictor(buffer)
        probe = np.array([5.0, 5.0])
        assert (
            restored.predict(probe).value.tobytes()
            == predictor.predict(probe).value.tobytes()
        )
        rng = np.random.default_rng(12)
        for _ in range(30):  # learning rebuilds the moments from the buffer
            v = rng.normal(loc=(5.0, 5.0), size=2)
            restored.observe(v, 3.0 * v[0] + v[1])
            predictor.observe(v, 3.0 * v[0] + v[1])
        for _ in range(20):
            v = rng.normal(loc=(5.0, 5.0), size=2)
            want = predictor.predict(v).value
            got = restored.predict(v).value
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
        trained = [
            restored.model_for(q)
            for q in restored.quantum_ids()
            if restored.model_for(q).is_trained
        ]
        assert trained and all(m._moments is not None for m in trained)
