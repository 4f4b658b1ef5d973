"""End-to-end integration scenarios spanning multiple subsystems.

Each test tells one complete story from the paper: data placement ->
workload -> learned serving -> maintenance -> verification, crossing
cluster, engine, core, bigdataless and explain package boundaries.
"""

import numpy as np
import pytest

from repro import (
    AdHocMLEngine,
    AgentConfig,
    AnalyticsQuery,
    ClusterTopology,
    CoordinatorKNN,
    Count,
    DistributedGridIndex,
    DistributedStore,
    ExactEngine,
    ExplanationBuilder,
    InterestProfile,
    KNNBaseline,
    Mean,
    RangeSelection,
    SEAAgent,
    WorkloadGenerator,
    gaussian_mixture_table,
)
from repro.optimizer import ExecutionLog, LearnedSelector, TaskFeatures


@pytest.fixture(scope="module")
def world():
    topo = ClusterTopology.single_datacenter(6)
    store = DistributedStore(topo, replication=2)
    table = gaussian_mixture_table(
        30_000, dims=("x0", "x1"), seed=31, name="data"
    )
    store.put_table(table, partitions_per_node=2)
    return topo, store, table


class TestFullAnalystSession:
    """A full Fig.-2 session: train, serve, explain, update, recover."""

    def test_lifecycle(self, world):
        topo, store, table = world
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=300, error_threshold=0.25),
        )
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 3, seed=32, hotspot_scale=2.5,
            extent_range=(3, 8),
        )
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=33
        )

        # Phase 1: train + serve.
        for query in workload.batch(800):
            agent.submit(query)
        stats = agent.stats()
        assert stats["dataless_fraction"] > 0.05

        # Phase 2: an explanation built from the trained models.
        base = workload.next_query()
        explanation = ExplanationBuilder(
            n_probes=9, span=(0.7, 1.3)
        ).from_predictor(base, agent.predictor(base))
        assert explanation.cost.bytes_scanned == 0
        assert np.all(np.isfinite(explanation.answers))

        # Phase 3: base data changes; the agent is notified and recovers.
        hot = profile.hotspots[0]
        from repro.data import Table

        rng = np.random.default_rng(34)
        store.append_rows(
            "data",
            Table(
                {
                    "x0": rng.normal(hot[0], 2.0, size=5000),
                    "x1": rng.normal(hot[1], 2.0, size=5000),
                    "value": rng.normal(size=5000),
                },
                name="data",
            ),
        )
        invalidated = agent.notify_data_update("data", hot - 8, hot + 8)
        assert invalidated >= 1
        updated = store.table("data").full_table()
        late = [agent.submit(q) for q in workload.batch(400)]
        served = [r for r in late if r.mode == "predicted"]
        errors = [
            abs(r.answer - r.query.evaluate(updated))
            / max(r.query.evaluate(updated), 1.0)
            for r in served
        ]
        if errors:
            assert np.median(errors) < 0.3  # re-learned, not stale


class TestOperatorsShareOneIndex:
    """One grid index serves kNN, ad hoc ML and subspace gathering."""

    def test_shared_index(self, world):
        topo, store, table = world
        index = DistributedGridIndex(
            store, "data", ("x0", "x1"), cells_per_dim=24
        )
        index.build()

        # kNN through the index agrees with the full-scan baseline.
        point = table.matrix(("x0", "x1")).mean(axis=0)
        base, _ = KNNBaseline(store, ("x0", "x1")).query("data", point, 7)
        coord, _ = CoordinatorKNN(store, index).query("data", point, 7)
        assert np.allclose(
            np.sort(base.column("_dist")), np.sort(coord.column("_dist"))
        )

        # Ad hoc regression over an index-gathered subspace matches the
        # full-scan gather, and a learned selector routes between them.
        engine = AdHocMLEngine(store, index)
        selection = RangeSelection(("x0", "x1"), [30, 30], [70, 70])
        model_a, _ = engine.regress(
            "data", selection, ("x0", "x1"), "value", method="index"
        )
        model_b, _ = engine.regress(
            "data", selection, ("x0", "x1"), "value", method="fullscan"
        )
        assert np.allclose(model_a.coef_, model_b.coef_, atol=1e-9)

    def test_selector_trained_on_this_cluster_routes_sanely(self, world):
        topo, store, table = world
        index = DistributedGridIndex(
            store, "data", ("x0", "x1"), cells_per_dim=24
        )
        index.build()
        engine = AdHocMLEngine(store, index)
        rng = np.random.default_rng(35)
        log = ExecutionLog()
        for _ in range(40):
            width = float(10 ** rng.uniform(0.3, 2.0))
            lo = rng.uniform(0, max(0.1, 100 - width), size=2)
            selection = RangeSelection(
                ("x0", "x1"), lo, np.minimum(lo + width, 100)
            )
            selectivity = float(selection.mask(table).mean())
            _, full = engine.gather("data", selection, method="fullscan")
            _, idx = engine.gather("data", selection, method="index")
            log.record(
                TaskFeatures.for_subspace_aggregate(
                    table.n_rows, selectivity, 2, len(topo)
                ),
                {"mapreduce": full.elapsed_sec, "coordinator": idx.elapsed_sec},
            )
        selector = LearnedSelector(max_depth=4).fit(log)
        tiny = selector.choose(
            TaskFeatures.for_subspace_aggregate(table.n_rows, 1e-5, 2, len(topo))
        )
        assert tiny == "coordinator"


class TestMultiAggregateAgent:
    """One agent concurrently learns several query classes."""

    def test_parallel_learning(self, world):
        topo, store, table = world
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=10_000, error_threshold=0.2),
        )
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 2, seed=36, hotspot_scale=2.0,
            extent_range=(4, 9),
        )
        count_wl = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=37
        )
        mean_wl = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Mean("value"), seed=38
        )
        for count_query, mean_query in zip(count_wl.batch(200), mean_wl.batch(200)):
            agent.submit(count_query)
            agent.submit(mean_query)
        count_pred = agent.predictor(count_wl.next_query())
        mean_pred = agent.predictor(mean_wl.next_query())
        assert count_pred is not mean_pred
        assert count_pred.n_observed == 200
        assert mean_pred.n_observed == 200
        # Both can answer in their own units.
        q = count_wl.next_query()
        assert count_pred.predict(q.vector()).scalar > 1.0
        q = mean_wl.next_query()
        assert abs(mean_pred.predict(q.vector()).scalar) < 100.0


class TestZoomSessionsAreTheBestCase:
    """Drill-down sessions (maximal overlap) are where learned/cached
    systems shine — the workload property P2 leans on."""

    def test_agent_serves_zoom_tails_datalessly(self, world):
        topo, store, table = world
        from repro.data import InterestProfile

        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=0, error_threshold=0.3,
                        warmup=16, n_quanta=4),
        )
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 1, seed=70, hotspot_scale=1.0,
            extent_range=(8, 10),
        )
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=71
        )
        predicted = []
        for _ in range(60):
            session = workload.zoom_session(depth=4, shrink=0.8)
            for query in session:
                record = agent.submit(query)
                if record.mode == "predicted":
                    predicted.append(record)
        assert predicted
        # Accuracy on the served answers stays within the loose gate.
        errors = []
        for record in predicted:
            truth = record.query.evaluate(table)
            errors.append(abs(record.answer - truth) / max(truth, 1.0))
        assert np.median(errors) < 0.3
