"""Integration-style tests for the SEA agent lifecycle (Fig. 2)."""

import numpy as np
import pytest

from repro.baselines import ExactEngine
from repro.cluster import ClusterTopology, DistributedStore
from repro.core import AgentConfig, SEAAgent
from repro.data import InterestProfile, WorkloadGenerator, gaussian_mixture_table
from repro.obs import StackObserver
from repro.queries import Count, Mean


@pytest.fixture(scope="module")
def world():
    topo = ClusterTopology.single_datacenter(4)
    store = DistributedStore(topo)
    table = gaussian_mixture_table(20000, dims=("x0", "x1"), seed=1, name="data")
    store.put_table(table, partitions_per_node=2)
    profile = InterestProfile.from_table(
        table, ("x0", "x1"), 3, seed=2, hotspot_scale=2.5, extent_range=(3, 8)
    )
    return store, table, profile


def run_agent(world, n_queries=1000, seed=3, **config_kwargs):
    agent, table, _ = run_records(world, n_queries, seed, **config_kwargs)
    return agent, table


def run_records(world, n_queries=1000, seed=3, **config_kwargs):
    """``(agent, table, records)``: the agent keeps none of what it
    served, so tests that read the records collect what submit returns."""
    store, table, profile = world
    defaults = dict(training_budget=400, error_threshold=0.15)
    defaults.update(config_kwargs)
    agent = SEAAgent(ExactEngine(store), AgentConfig(**defaults))
    workload = WorkloadGenerator(
        "data", ("x0", "x1"), profile, aggregate=Count(), seed=seed
    )
    records = [agent.submit(query) for query in workload.batch(n_queries)]
    return agent, table, records


class TestLifecycle:
    def test_training_phase_goes_to_engine(self, world):
        _, _, records = run_records(world, n_queries=100)
        assert all(r.mode == "train" for r in records)
        assert all(r.used_base_data for r in records)

    def test_serving_phase_produces_dataless_answers(self, world):
        agent, _, records = run_records(world)
        modes = {r.mode for r in records}
        assert "predicted" in modes
        stats = agent.stats()
        assert stats["dataless_fraction"] > 0.05

    def test_predicted_answers_touch_no_data_nodes(self, world):
        _, _, records = run_records(world)
        for record in records:
            if record.mode == "predicted":
                assert record.cost.bytes_scanned == 0
                assert record.cost.tasks_launched == 0
                assert not record.used_base_data

    def test_predicted_answers_are_accurate(self, world):
        _, table, records = run_records(world)
        errors = []
        for record in records:
            if record.mode == "predicted":
                truth = record.query.evaluate(table)
                errors.append(abs(record.answer - truth) / max(abs(truth), 1.0))
        assert len(errors) > 20
        assert np.median(errors) < 0.15

    def test_predicted_latency_far_below_exact(self, world):
        _, _, records = run_records(world)
        predicted = [
            r.cost.elapsed_sec for r in records if r.mode == "predicted"
        ]
        exact = [
            r.cost.elapsed_sec for r in records if r.mode != "predicted"
        ]
        assert np.mean(predicted) < np.mean(exact) / 100

    def test_fallback_queries_keep_learning(self, world):
        store, table, profile = world
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=50, error_threshold=0.15),
        )
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=9
        )
        for query in workload.batch(300):
            agent.submit(query)
        predictor = agent.predictor(workload.next_query())
        assert predictor.n_observed > 50  # fallbacks contributed

    def test_zero_threshold_never_predicts(self, world):
        agent, _ = run_agent(world, n_queries=400, error_threshold=0.0)
        assert agent.stats()["dataless_fraction"] == 0.0

    def test_stats_add_up(self, world):
        agent, _ = run_agent(world, n_queries=300)
        stats = agent.stats()
        assert stats["queries"] == 300
        assert (
            stats["predicted"] + stats["fallback"] + stats["trained"] == 300
        )


class TestPerAggregatePredictors:
    def test_separate_predictors_per_aggregate(self, world):
        store, table, profile = world
        agent = SEAAgent(ExactEngine(store), AgentConfig(training_budget=1000))
        count_wl = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=5
        )
        mean_wl = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Mean("value"), seed=6
        )
        agent.submit(count_wl.next_query())
        agent.submit(mean_wl.next_query())
        assert len(agent._predictors) == 2


class TestDataUpdates:
    def test_notify_data_update_invalidates_overlapping(self, world):
        agent, table, records = run_records(world)
        before = sum(
            agent.predictor(r.query).model_for(q).n_samples
            for r in records[:1]
            for q in agent.predictor(r.query).quantum_ids()
        )
        invalidated = agent.notify_data_update("data", [0.0, 0.0], [100.0, 100.0])
        assert invalidated > 0
        predictor = agent.predictor(records[0].query)
        assert all(
            predictor.model_for(q).n_samples == 0
            for q in predictor.quantum_ids()
        )

    def test_update_outside_interest_invalidates_nothing(self, world):
        agent, _ = run_agent(world)
        invalidated = agent.notify_data_update(
            "data", [1e6, 1e6], [2e6, 2e6]
        )
        assert invalidated == 0

    def test_update_other_table_ignored(self, world):
        agent, _ = run_agent(world)
        assert agent.notify_data_update("other", [0, 0], [100, 100]) == 0


class TestConstantAgentBill:
    """A model-served answer's bill: metered once detached, every time attached."""

    def test_constant_bill_equals_the_metered_report(self, world):
        store, _, _ = world
        agent = SEAAgent(ExactEngine(store))
        metered = agent._meter_agent_cost()
        assert metered.elapsed_sec == 1e-3 and metered.nodes_touched == 1
        assert metered.bytes_scanned == 0 and metered.tasks_launched == 0
        for _ in range(3):
            assert agent._agent_cost().as_dict() == metered.as_dict()

    def test_callers_own_the_report_they_get(self, world):
        store, _, _ = world
        agent = SEAAgent(ExactEngine(store))
        first = agent._agent_cost()
        want = first.as_dict()
        first.elapsed_sec += 5.0
        first.bytes_scanned = 10**9
        second = agent._agent_cost()
        assert second is not first
        assert second.as_dict() == want

    def test_detached_bill_meters_once_and_attached_bill_every_time(
        self, world, monkeypatch
    ):
        store, _, _ = world
        agent = SEAAgent(ExactEngine(store))
        calls = []
        meter = agent._meter_agent_cost
        monkeypatch.setattr(
            agent, "_meter_agent_cost", lambda: calls.append(1) or meter()
        )
        detached = [agent._agent_cost() for _ in range(5)]
        assert len(calls) == 1
        observer = StackObserver()
        agent.attach_observer(observer)
        attached = [agent._agent_cost() for _ in range(3)]
        assert len(calls) == 4
        spans = [s for s in observer.trace.spans if s.name == "agent_inference"]
        assert len(spans) == 3  # one recorded span per attached answer
        for report in detached + attached:
            assert report.as_dict() == detached[0].as_dict()
