"""Fault injection: schedules, failover, degraded answers, chaos fuzzing.

The robustness contract has four legs, each pinned here:

1. **Determinism** — the same schedule + seed + call sequence reproduces
   the same faults (clock windows, manual overrides, transient draws).
2. **Byte identity** — whenever every partition keeps at least one live
   replica, pure-crash failover scans exactly the bytes of the no-fault
   run (dead nodes refuse connections before any charge), and
   ``pick_replica`` never returns a crashed node.
3. **Sound degradation** — with every replica of a partition down,
   ``degrade`` mode returns a :class:`DegradedAnswer` whose coverage is
   exact and whose bounds contain the no-fault ground truth.
4. **No surprise failures** — randomized crash/recovery schedules against
   every engine raise nothing but :class:`PartitionLostError`
   (the ``chaos`` marker).
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactEngine, SegmentStatsCache
from repro.baselines.sketch import SketchAQPEngine
from repro.cluster import (
    LAYOUT_COLUMN,
    ClusterTopology,
    DistributedStore,
    columnar_consistent,
)
from repro.cluster.node import DataNode
from repro.cluster.storage import StoredTable
from repro.common import CostMeter
from repro.common.errors import (
    ConfigurationError,
    FaultError,
    NodeUnavailableError,
    PartitionLostError,
    StorageError,
    TransientReadError,
)
from repro.core import AgentConfig, SEAAgent
from repro.data import (
    InterestProfile,
    WorkloadGenerator,
    gaussian_mixture_table,
    uniform_table,
)
from repro.engine import CoordinatorEngine, MapReduceEngine
from repro.faults import (
    CrashWindow,
    DegradedAnswer,
    FailoverPolicy,
    FaultInjector,
    FaultSchedule,
    UnknownChunk,
    build_degraded_answer,
    degraded_bounds,
)
from repro.obs import StackObserver
from repro.queries import (
    AnalyticsQuery,
    Count,
    Max,
    Mean,
    Median,
    Min,
    RangeSelection,
    Std,
    Sum,
)


def build_world(n_rows=3000, n_nodes=4, replication=2, seed=5, parts=2):
    topo = ClusterTopology.single_datacenter(n_nodes)
    store = DistributedStore(topo, replication=replication)
    table = uniform_table(n_rows, dims=("x0", "x1"), seed=seed, name="data")
    store.put_table(table, partitions_per_node=parts)
    return store, table


def range_query(lo=10.0, hi=80.0, aggregate=None):
    return AnalyticsQuery(
        "data",
        RangeSelection(("x0", "x1"), (lo, lo), (hi, hi)),
        aggregate or Count(),
    )


def crash_partition(store, index):
    """A schedule taking down every replica of partition ``index``."""
    schedule = FaultSchedule()
    for node in store.table("data").partitions[index].all_nodes:
        schedule.crash(node)
    return schedule


# ---------------------------------------------------------------------------
# Schedules and the injector
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_crash_window_covers_half_open(self):
        window = CrashWindow("n0", 1.0, 5.0)
        assert not window.covers(0.5)
        assert window.covers(1.0)
        assert window.covers(4.999)
        assert not window.covers(5.0)

    def test_crash_window_validation(self):
        with pytest.raises(ConfigurationError):
            CrashWindow("n0", -1.0, 5.0)
        with pytest.raises(ConfigurationError):
            CrashWindow("n0", 5.0, 5.0)

    def test_builders_chain_and_validate(self):
        schedule = FaultSchedule().crash("a", 1.0, 2.0).slow("b", 3.0).flaky("c", 0.5)
        assert schedule.down_at("a", 1.5) and not schedule.down_at("a", 2.0)
        assert schedule.slowdowns["b"] == 3.0
        assert schedule.error_rates["c"] == 0.5
        assert schedule.touches
        with pytest.raises(ConfigurationError):
            FaultSchedule().slow("b", 0.5)
        with pytest.raises(ConfigurationError):
            FaultSchedule().flaky("c", 1.0)

    def test_nodes_down_at_deduplicates(self):
        schedule = FaultSchedule().crash("a", 0.0, 2.0).crash("a", 1.0, 3.0).crash("b")
        assert schedule.nodes_down_at(1.5) == ["a", "b"]

    def test_crash_fraction(self):
        nodes = [f"n{i}" for i in range(8)]
        schedule = FaultSchedule.crash_fraction(nodes, 0.25)
        assert schedule.nodes_down_at(0.0) == ["n0", "n1"]
        assert FaultSchedule.crash_fraction(nodes, 0.0).touches is False


class TestInjector:
    def test_windows_follow_the_clock(self):
        injector = FaultInjector(FaultSchedule().crash("a", 2.0, 4.0))
        assert not injector.is_down("a")
        injector.advance(2.0)
        assert injector.is_down("a")
        injector.set_time(4.0)
        assert not injector.is_down("a")
        with pytest.raises(ConfigurationError):
            injector.set_time(1.0)

    def test_manual_overrides_beat_schedule(self):
        injector = FaultInjector(FaultSchedule().crash("a"))
        assert injector.is_down("a")
        injector.recover("a")  # cancels the open-ended window
        assert not injector.is_down("a")
        injector.crash("b")
        assert injector.is_down("b") and injector.active
        injector.recover("b")
        assert not injector.is_down("b")

    def test_check_available_raises_and_counts(self):
        injector = FaultInjector(FaultSchedule().crash("a"))
        with pytest.raises(NodeUnavailableError):
            injector.check_available("a", "t/p0")
        assert injector.n_unavailable == 1
        injector.check_available("b")  # healthy: no-op

    def test_transient_draws_are_seeded(self):
        schedule = FaultSchedule().flaky("a", 0.5)

        def draw_failures(seed):
            injector = FaultInjector(schedule, seed=seed)
            out = []
            for _ in range(64):
                try:
                    injector.maybe_fail_read("a", "t/p0")
                    out.append(False)
                except TransientReadError:
                    out.append(True)
            return out

        assert draw_failures(7) == draw_failures(7)
        assert any(draw_failures(7)) and not all(draw_failures(7))

    def test_advance_fires_boundary_events(self):
        obs = StackObserver()
        injector = FaultInjector(
            FaultSchedule().crash("a", 1.0, 2.0), observer=obs
        )
        injector.advance(3.0)
        kinds = [e.type for e in obs.events]
        assert "node_crash" in kinds and "node_recover" in kinds

    def test_fault_errors_are_typed(self):
        assert issubclass(NodeUnavailableError, FaultError)
        assert issubclass(TransientReadError, FaultError)
        assert issubclass(PartitionLostError, FaultError)
        error = PartitionLostError("t/p0", tried=("a", "b"))
        assert error.tried == ("a", "b")


# ---------------------------------------------------------------------------
# Failover policy
# ---------------------------------------------------------------------------


class TestFailoverPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = FailoverPolicy(
            backoff_base_sec=0.1, backoff_factor=2.0, backoff_cap_sec=0.3
        )
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)
        with pytest.raises(ConfigurationError):
            FailoverPolicy(max_attempts=0)

    def test_scan_fails_over_to_replica(self):
        store, _ = build_world()
        partition = store.table("data").partitions[0]
        injector = FaultInjector(FaultSchedule().crash(partition.primary_node))
        store.attach_faults(injector)
        meter = CostMeter()
        data, serving, extra = FailoverPolicy().read_partition(
            store, partition, meter, requester=store.topology.pick_coordinator()
        )
        assert serving in partition.replica_nodes
        assert data.n_rows == partition.n_rows
        assert extra > 0.0  # the dead primary cost a probe timeout
        assert meter.freeze().bytes_scanned == partition.n_bytes

    def test_retries_charge_bytes_then_succeed(self):
        store, _ = build_world()
        partition = store.table("data").partitions[0]
        # Every replica flaky at rate .99 with seeded draws: some attempts
        # fail, charging their bytes, before one succeeds or all exhaust.
        schedule = FaultSchedule()
        for node in partition.all_nodes:
            schedule.flaky(node, 0.6)
        store.attach_faults(FaultInjector(schedule, seed=11))
        meter = CostMeter()
        try:
            data, _, _ = FailoverPolicy(max_attempts=4).read_partition(
                store, partition, meter
            )
            assert data.n_rows == partition.n_rows
        except PartitionLostError:
            pass  # legal with very unlucky draws
        # At least one attempt was charged; failures add whole extra scans.
        assert meter.freeze().bytes_scanned >= partition.n_bytes

    def test_all_replicas_down_raises_lost(self):
        store, _ = build_world()
        store.attach_faults(FaultInjector(crash_partition(store, 0)))
        partition = store.table("data").partitions[0]
        with pytest.raises(PartitionLostError) as excinfo:
            FailoverPolicy().read_partition(store, partition, CostMeter())
        assert excinfo.value.partition_id == partition.partition_id
        assert tuple(excinfo.value.tried)  # replicas it probed

    def test_fault_metrics_surface(self):
        store, _ = build_world()
        partition = store.table("data").partitions[0]
        obs = StackObserver()
        injector = FaultInjector(
            FaultSchedule().crash(partition.primary_node), observer=obs
        )
        store.attach_faults(injector)
        FailoverPolicy().read_partition(
            store, partition, CostMeter(), requester=store.topology.pick_coordinator(), obs=obs
        )
        metrics = obs.metrics.as_dict()
        assert any("fault_probes_total" in key for key in metrics)
        assert any("fault_failovers_total" in key for key in metrics)
        assert any(e.type == "failover" for e in obs.events)


# ---------------------------------------------------------------------------
# Storage-layer satellites
# ---------------------------------------------------------------------------


class TestStorageGuards:
    def test_empty_stored_table_raises_storage_error(self):
        empty = StoredTable(name="ghost", partitions=[])
        with pytest.raises(StorageError):
            empty.column_names
        with pytest.raises(StorageError):
            empty.nodes
        with pytest.raises(StorageError):
            empty.full_table()

    def test_drop_partition_rejects_negative_bytes(self):
        node = DataNode("n0")
        node.add_partition("t/p0", 100)
        with pytest.raises(ValueError):
            node.drop_partition("t/p0", 200)
        # The failed drop left state untouched.
        assert node.stored_bytes == 100 and "t/p0" in node.partition_ids
        node.drop_partition("t/p0", 100)
        assert node.stored_bytes == 0

    def test_pick_replica_skips_crashed_nodes(self):
        store, _ = build_world()
        partition = store.table("data").partitions[0]
        store.attach_faults(
            FaultInjector(FaultSchedule().crash(partition.primary_node))
        )
        for _ in range(8):
            assert store.pick_replica(partition) != partition.primary_node

    def test_pick_replica_all_down_raises_lost(self):
        store, _ = build_world()
        store.attach_faults(FaultInjector(crash_partition(store, 0)))
        with pytest.raises(PartitionLostError):
            store.pick_replica(store.table("data").partitions[0])


# ---------------------------------------------------------------------------
# Byte-identity properties (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def crash_sets(draw):
    """A subset of nodes to crash, never covering all replicas anywhere."""
    n_nodes = draw(st.integers(min_value=3, max_value=6))
    crashed = draw(
        st.sets(st.integers(min_value=0, max_value=n_nodes - 1), max_size=n_nodes - 1)
    )
    return n_nodes, crashed


class TestByteIdentity:
    @settings(max_examples=20, deadline=None)
    @given(crash_sets(), st.integers(min_value=0, max_value=10_000))
    def test_failover_scan_bytes_match_no_fault(self, spec, seed):
        """Pure crashes never change bytes_scanned while replicas survive."""
        n_nodes, crashed_indices = spec
        store, _ = build_world(n_rows=600, n_nodes=n_nodes, replication=2, seed=seed % 97)
        crashed = {store.topology.node_ids[i] for i in crashed_indices}
        stored = store.table("data")
        # Keep only crash sets that leave every partition one live replica.
        for partition in stored.partitions:
            if all(n in crashed for n in partition.all_nodes):
                crashed.discard(partition.all_nodes[0])
        query = range_query(20.0, 70.0)
        engine = ExactEngine(store)
        baseline, base_report = engine.execute(query)
        schedule = FaultSchedule()
        for node in crashed:
            schedule.crash(node)
        store.attach_faults(FaultInjector(schedule, seed=seed))
        answer, report = engine.execute(query)
        store.clear_faults()
        assert answer == baseline
        assert report.bytes_scanned == base_report.bytes_scanned

    @settings(max_examples=20, deadline=None)
    @given(crash_sets())
    def test_pick_replica_never_returns_crashed(self, spec):
        n_nodes, crashed_indices = spec
        store, _ = build_world(n_rows=400, n_nodes=n_nodes, replication=2)
        crashed = {store.topology.node_ids[i] for i in crashed_indices}
        stored = store.table("data")
        for partition in stored.partitions:
            if all(n in crashed for n in partition.all_nodes):
                crashed.discard(partition.all_nodes[0])
        schedule = FaultSchedule()
        for node in crashed:
            schedule.crash(node)
        store.attach_faults(FaultInjector(schedule))
        for partition in stored.partitions:
            assert store.pick_replica(partition) not in crashed


# ---------------------------------------------------------------------------
# Degraded answers
# ---------------------------------------------------------------------------


class TestDegradedBounds:
    def chunk(self, n, lo, hi):
        return UnknownChunk(n_rows=n, stats={"v": (lo, hi)})

    def test_count_bounds(self):
        lower, upper, bounded = degraded_bounds(
            Count(), None, 10.0, [self.chunk(5, 0, 1), self.chunk(3, 0, 1)]
        )
        assert (lower, upper, bounded) == (10.0, 18.0, True)

    def test_sum_bounds_clip_sign(self):
        lower, upper, bounded = degraded_bounds(
            Sum("v"), None, 100.0, [self.chunk(4, 2.0, 5.0)]
        )
        # All-positive range: the chunk can only add, not subtract.
        assert (lower, upper, bounded) == (100.0, 120.0, True)
        lower, upper, _ = degraded_bounds(
            Sum("v"), None, 100.0, [self.chunk(4, -3.0, 5.0)]
        )
        assert (lower, upper) == (100.0 - 12.0, 100.0 + 20.0)

    def test_mean_min_max_bounds(self):
        chunks = [self.chunk(4, 2.0, 8.0)]
        assert degraded_bounds(Mean("v"), None, 5.0, chunks) == (2.0, 8.0, True)
        assert degraded_bounds(Min("v"), None, 5.0, chunks) == (2.0, 5.0, True)
        assert degraded_bounds(Max("v"), None, 5.0, chunks) == (5.0, 8.0, True)

    def test_holistic_is_unbounded(self):
        lower, upper, bounded = degraded_bounds(
            Std("v"), None, 1.0, [self.chunk(4, 0.0, 1.0)]
        )
        assert not bounded and lower == -math.inf and upper == math.inf

    def test_selection_box_clips_chunk_ranges(self):
        selection = RangeSelection(("v",), (0.0,), (3.0,))
        lower, upper, bounded = degraded_bounds(
            Sum("v"), selection, 0.0, [self.chunk(2, 1.0, 100.0)]
        )
        assert bounded and upper == pytest.approx(6.0)  # clipped to 3.0

    def test_no_chunks_collapses_to_value(self):
        assert degraded_bounds(Count(), None, 7.0, []) == (7.0, 7.0, True)

    def test_build_degraded_answer_coverage(self):
        answer = build_degraded_answer(
            Count(), None, 5.0, [self.chunk(25, 0, 1)], [3], [3], total_rows=100
        )
        assert answer.coverage == pytest.approx(0.75)
        assert answer.degraded and answer.contains(20.0)
        assert not answer.contains(31.0)
        assert answer.margin == pytest.approx(12.5)


class TestDegradedExecution:
    @pytest.mark.parametrize(
        "aggregate",
        [Count(), Sum("x1"), Mean("x1"), Min("x1"), Max("x1"), Std("x1"), Median("x1")],
    )
    def test_degrade_bounds_contain_ground_truth(self, aggregate):
        store, _ = build_world(replication=1)
        engine = ExactEngine(store)
        query = range_query(aggregate=aggregate)
        truth = engine.ground_truth(query)
        store.attach_faults(FaultInjector(crash_partition(store, 1)))
        degraded_engine = ExactEngine(store, failure_mode="degrade")
        answer, _ = degraded_engine.execute(query)
        store.clear_faults()
        assert isinstance(answer, DegradedAnswer)
        assert 0.0 <= answer.coverage < 1.0
        if answer.bounded:
            assert answer.contains(truth)
        else:
            assert answer.lower == -math.inf and answer.upper == math.inf

    def test_coverage_is_exact_row_fraction(self):
        store, _ = build_world(replication=1)
        stored = store.table("data")
        injector = FaultInjector(crash_partition(store, 0))
        store.attach_faults(injector)
        engine = ExactEngine(store, failure_mode="degrade", pruning=False)
        answer, _ = engine.execute(range_query())
        store.clear_faults()
        # The crashed node hosts more partitions than just #0; every one it
        # takes down counts toward the unknown rows.
        lost_rows = sum(
            p.n_rows
            for p in stored.partitions
            if all(injector.is_down(n) for n in p.all_nodes)
        )
        assert answer.unknown_rows == lost_rows
        assert answer.coverage == pytest.approx(1.0 - lost_rows / stored.n_rows)

    def test_fail_mode_raises(self):
        store, _ = build_world(replication=1)
        store.attach_faults(FaultInjector(crash_partition(store, 0)))
        with pytest.raises(PartitionLostError):
            ExactEngine(store).execute(range_query())

    def test_disjoint_lost_partition_recovers_exactly(self):
        # Sort on x0 so partitions have tight zone maps; lose one disjoint
        # from the query box: the degrade path proves it irrelevant.
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        table = uniform_table(2000, dims=("x0", "x1"), seed=3, name="data")
        order = np.argsort(table.column("x0"), kind="stable")
        store.put_table(table.take(order), partitions_per_node=2)
        engine = ExactEngine(store, failure_mode="degrade", pruning=False)
        # Partition 7 holds the largest x0 values; query far below them.
        query = AnalyticsQuery(
            "data", RangeSelection(("x0",), (0.0,), (30.0,)), Count()
        )
        truth = engine.ground_truth(query)
        store.attach_faults(FaultInjector(crash_partition(store, 7)))
        answer, _ = engine.execute(query)
        store.clear_faults()
        assert isinstance(answer, DegradedAnswer)
        assert answer.coverage == 1.0  # recovered exactly: nothing unknown
        assert answer.value == truth
        assert (answer.lower, answer.upper) == (truth, truth)

    def test_degrade_execute_many_matches_sequential(self):
        store, _ = build_world(replication=1)
        engine = ExactEngine(store, failure_mode="degrade")
        queries = [range_query(10.0, 60.0), range_query(30.0, 90.0, Sum("x1"))]
        store.attach_faults(FaultInjector(crash_partition(store, 2)))
        batch = engine.execute_many(queries)
        sequential = [engine.execute(q) for q in queries]
        store.clear_faults()
        for (batch_answer, _), (seq_answer, _) in zip(batch, sequential):
            if isinstance(batch_answer, DegradedAnswer):
                assert batch_answer.value == seq_answer.value
                assert batch_answer.coverage == seq_answer.coverage
            else:
                assert batch_answer == seq_answer


# ---------------------------------------------------------------------------
# Coordinator point reads under faults
# ---------------------------------------------------------------------------


class TestCoordinatorFaults:
    def plan_for(self, store, n=40):
        stored = store.table("data")
        return {
            i: list(range(min(n, partition.n_rows)))
            for i, partition in enumerate(stored.partitions)
        }

    def test_fetch_rows_fails_over(self):
        store, _ = build_world()
        coordinator = CoordinatorEngine(store)
        stored = store.table("data")
        plan = self.plan_for(store)
        baseline, _ = coordinator.fetch_rows(stored, plan)
        schedule = FaultSchedule().crash(stored.partitions[0].primary_node)
        store.attach_faults(FaultInjector(schedule))
        rows, _ = coordinator.fetch_rows(stored, plan)
        store.clear_faults()
        assert rows.n_rows == baseline.n_rows

    def test_fetch_rows_on_lost_skip(self):
        store, _ = build_world(replication=1)
        coordinator = CoordinatorEngine(store)
        stored = store.table("data")
        plan = self.plan_for(store)
        injector = FaultInjector(crash_partition(store, 0))
        store.attach_faults(injector)
        with pytest.raises(PartitionLostError):
            coordinator.fetch_rows(stored, plan)
        lost = []
        rows, _ = coordinator.fetch_rows(stored, plan, on_lost="skip", lost=lost)
        store.clear_faults()
        down = {
            i
            for i, p in enumerate(stored.partitions)
            if all(injector.is_down(n) for n in p.all_nodes)
        }
        assert 0 in down
        assert lost == [(i, len(plan[i])) for i in sorted(down)]
        expected = sum(len(v) for k, v in plan.items() if k not in down)
        assert rows.n_rows == expected

    def test_fetch_rows_many_under_faults_matches_sequential(self):
        store, _ = build_world()
        coordinator = CoordinatorEngine(store)
        stored = store.table("data")
        plans = [self.plan_for(store, 10), self.plan_for(store, 25)]
        schedule = FaultSchedule().crash(stored.partitions[0].primary_node)
        store.attach_faults(FaultInjector(schedule))
        batch = coordinator.fetch_rows_many(stored, plans)
        store.clear_faults()
        assert [t.n_rows for t, _ in batch] == [
            sum(len(v) for v in plan.values()) for plan in plans
        ]


# ---------------------------------------------------------------------------
# Engines and the agent under loss
# ---------------------------------------------------------------------------


class TestServingUnderLoss:
    def trained_agent(self, store, table, budget=40):
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=budget, error_threshold=0.5),
        )
        profile = InterestProfile.from_table(table, ("x0", "x1"), 3, seed=5)
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=6
        )
        for query in workload.batch(budget + 20):
            agent.submit(query)
        return agent, workload

    def test_agent_serves_through_total_loss(self):
        store, table = build_world()
        agent, workload = self.trained_agent(store, table)
        schedule = FaultSchedule()
        for node in store.topology.node_ids:
            schedule.crash(node)
        store.attach_faults(FaultInjector(schedule))
        served = [agent.submit(q) for q in workload.batch(30)]
        served += agent.submit_batch(workload.batch(20))
        store.clear_faults()
        assert all(record.answer is not None for record in served)
        # Nothing could be scanned: every answer avoided base data.
        assert all(
            record.cost is None or record.cost.bytes_scanned == 0
            for record in served
        )

    def test_degraded_answers_are_not_learned(self):
        store, table = build_world(replication=1)
        agent = SEAAgent(
            ExactEngine(store, failure_mode="degrade"),
            AgentConfig(training_budget=10),
        )
        profile = InterestProfile.from_table(table, ("x0", "x1"), 3, seed=5)
        workload = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=6
        )
        store.attach_faults(FaultInjector(crash_partition(store, 0)))
        observed_before = sum(
            p.n_observed for p in agent._predictors.values()
        )
        records = [agent.submit(q) for q in workload.batch(6)]
        store.clear_faults()
        degraded = [
            r for r in records if isinstance(r.answer, DegradedAnswer)
        ]
        exactly_recovered = [
            r
            for r in records
            if isinstance(r.answer, DegradedAnswer) and r.answer.coverage == 1.0
        ]
        observed_after = sum(
            p.n_observed for p in agent._predictors.values()
        )
        # Only full-coverage answers (exact or exactly recovered) trained.
        assert observed_after - observed_before == len(records) - (
            len(degraded) - len(exactly_recovered)
        )

    def test_canopy_degrades_with_bounds(self):
        store, table = build_world(replication=1)
        cache = SegmentStatsCache(
            store, "data", ("x0", "x1"), cells_per_dim=4, failure_mode="degrade"
        )
        query = range_query(5.0, 95.0)
        exact, _ = cache.execute(query)  # builds directory fault-free
        truth = ExactEngine(store).ground_truth(query)
        assert exact == truth
        store.attach_faults(FaultInjector(crash_partition(store, 0)))
        answer, _ = cache.execute(range_query(4.0, 96.0))
        store.clear_faults()
        truth2 = ExactEngine(store).ground_truth(range_query(4.0, 96.0))
        assert isinstance(answer, DegradedAnswer)
        assert answer.contains(truth2)
        # The partial cell reads never poisoned the cache: healthy again,
        # the same query is exact.
        healthy, _ = cache.execute(range_query(4.0, 96.0))
        value = healthy.value if isinstance(healthy, DegradedAnswer) else healthy
        assert value == truth2

    def test_sketch_survives_build_crash_and_serves_through_loss(self):
        store, _ = build_world()
        schedule = FaultSchedule().crash(store.topology.node_ids[0])
        store.attach_faults(FaultInjector(schedule))
        sketch = SketchAQPEngine(store, "data", "x0", levels=8)
        sketch.build()
        store.clear_faults()
        # Total loss afterwards: the synopsis still answers.
        alldown = FaultSchedule()
        for node in store.topology.node_ids:
            alldown.crash(node)
        store.attach_faults(FaultInjector(alldown))
        query = AnalyticsQuery(
            "data", RangeSelection(("x0",), (10.0,), (80.0,)), Count()
        )
        estimate, report = sketch.execute(query)
        store.clear_faults()
        assert estimate >= 0.0 and report.bytes_scanned == 0

    def test_mapreduce_skip_mode_reports_lost_partitions(self):
        store, _ = build_world(replication=1)
        engine = MapReduceEngine(store)
        injector = FaultInjector(crash_partition(store, 3))
        store.attach_faults(injector)
        lost = []
        results, _ = engine.run(
            "data",
            lambda t: [(0, float(t.n_rows))],
            lambda key, values: sum(values),
            on_lost="skip",
            lost=lost,
        )
        store.clear_faults()
        stored = store.table("data")
        down = {
            i
            for i, p in enumerate(stored.partitions)
            if all(injector.is_down(n) for n in p.all_nodes)
        }
        assert 3 in down and sorted(lost) == sorted(down)
        expected = sum(
            p.n_rows for i, p in enumerate(stored.partitions) if i not in down
        )
        assert results[0] == expected


# ---------------------------------------------------------------------------
# Chaos fuzzing
# ---------------------------------------------------------------------------


def random_schedule(rng, node_ids):
    """A randomized mixed schedule: crashes, recoveries, stragglers, flakes."""
    schedule = FaultSchedule()
    for node in node_ids:
        roll = rng.random()
        if roll < 0.35:
            start = float(rng.uniform(0.0, 2.0))
            if rng.random() < 0.5:
                schedule.crash(node, at=start)
            else:
                schedule.crash(node, at=start, until=start + float(rng.uniform(0.5, 3.0)))
        elif roll < 0.5:
            schedule.slow(node, float(rng.uniform(1.5, 4.0)))
        elif roll < 0.7:
            schedule.flaky(node, float(rng.uniform(0.05, 0.4)))
    return schedule


@pytest.mark.chaos
class TestChaos:
    """Randomized crash/recovery schedules against every engine.

    The only failure any engine may surface is ``PartitionLostError``;
    anything else is an unhandled fault leaking through the stack.
    """

    N_ROUNDS = 12

    def test_exact_engine_chaos(self):
        for round_index in range(self.N_ROUNDS):
            rng = np.random.default_rng(round_index)
            store, _ = build_world(
                n_rows=800,
                n_nodes=int(rng.integers(3, 6)),
                replication=int(rng.integers(1, 3)),
                seed=round_index,
            )
            injector = FaultInjector(
                random_schedule(rng, store.topology.node_ids), seed=round_index
            )
            store.attach_faults(injector)
            engine = ExactEngine(store)
            degraded_engine = ExactEngine(store, failure_mode="degrade")
            truth_engine = ExactEngine(store)
            for step in range(6):
                injector.advance(float(rng.uniform(0.0, 1.0)))
                lo = float(rng.uniform(0.0, 50.0))
                hi = lo + float(rng.uniform(5.0, 50.0))
                aggregate = [Count(), Sum("x1"), Mean("x1")][step % 3]
                query = range_query(lo, hi, aggregate)
                try:
                    engine.execute(query)
                except PartitionLostError:
                    pass
                answer, _ = degraded_engine.execute(query)
                if isinstance(answer, DegradedAnswer) and answer.bounded:
                    store.clear_faults()
                    truth = truth_engine.ground_truth(query)
                    store.attach_faults(injector)
                    assert answer.contains(truth)

    def test_coordinator_chaos(self):
        for round_index in range(self.N_ROUNDS):
            rng = np.random.default_rng(1000 + round_index)
            store, _ = build_world(
                n_rows=600, replication=int(rng.integers(1, 3)), seed=round_index
            )
            injector = FaultInjector(
                random_schedule(rng, store.topology.node_ids),
                seed=round_index,
            )
            store.attach_faults(injector)
            coordinator = CoordinatorEngine(store)
            stored = store.table("data")
            for _ in range(4):
                injector.advance(float(rng.uniform(0.0, 1.0)))
                plan = {
                    int(i): sorted(
                        set(
                            int(r)
                            for r in rng.integers(
                                0, stored.partitions[int(i)].n_rows, size=8
                            )
                        )
                    )
                    for i in rng.integers(0, len(stored.partitions), size=3)
                }
                try:
                    coordinator.fetch_rows(stored, plan)
                except PartitionLostError:
                    lost = []
                    coordinator.fetch_rows(
                        stored, plan, on_lost="skip", lost=lost
                    )
                    assert lost  # skip mode must explain the miss

    def test_agent_chaos_keeps_serving(self):
        for round_index in range(4):
            rng = np.random.default_rng(2000 + round_index)
            store, table = build_world(n_rows=1500, seed=round_index)
            agent = SEAAgent(
                ExactEngine(store),
                AgentConfig(training_budget=30, error_threshold=0.5),
            )
            profile = InterestProfile.from_table(
                table, ("x0", "x1"), 3, seed=round_index
            )
            workload = WorkloadGenerator(
                "data", ("x0", "x1"), profile, aggregate=Count(), seed=round_index
            )
            for query in workload.batch(40):
                agent.submit(query)
            injector = FaultInjector(
                random_schedule(rng, store.topology.node_ids),
                seed=round_index,
            )
            store.attach_faults(injector)
            for query in workload.batch(25):
                injector.advance(float(rng.uniform(0.0, 0.5)))
                try:
                    record = agent.submit(query)
                    assert record.answer is not None
                except PartitionLostError:
                    pass  # legal only when the fallback had no prediction
            store.clear_faults()

    def test_columnar_chaos_consistent(self):
        """Columnar layout under chaos: only ``PartitionLostError`` may
        surface, and after every round of faulted queries plus
        append/delete maintenance the stored encodings still decode to
        exactly the row data (the ``columnar_consistent`` invariant)."""
        for round_index in range(self.N_ROUNDS):
            rng = np.random.default_rng(3000 + round_index)
            topo = ClusterTopology.single_datacenter(int(rng.integers(3, 6)))
            store = DistributedStore(
                topo,
                replication=int(rng.integers(1, 3)),
                layout=LAYOUT_COLUMN,
            )
            table = uniform_table(
                800, dims=("x0", "x1"), seed=round_index, name="data"
            )
            store.put_table(table, partitions_per_node=2)
            injector = FaultInjector(
                random_schedule(rng, store.topology.node_ids),
                seed=round_index,
            )
            store.attach_faults(injector)
            engine = ExactEngine(store)
            for step in range(6):
                injector.advance(float(rng.uniform(0.0, 1.0)))
                lo = float(rng.uniform(0.0, 50.0))
                hi = lo + float(rng.uniform(5.0, 50.0))
                aggregate = [Count(), Sum("x1"), Mean("x1")][step % 3]
                try:
                    engine.execute(range_query(lo, hi, aggregate))
                except PartitionLostError:
                    pass
                if step == 3:  # maintenance runs on the healthy store
                    store.clear_faults()
                    store.append_rows(
                        "data",
                        uniform_table(
                            60, dims=("x0", "x1"), seed=step, name="data"
                        ),
                    )
                    store.delete_rows(
                        "data", lambda t: t.column("x0") < 5.0
                    )
                    store.attach_faults(injector)
            store.clear_faults()
            stored = store.table("data")
            assert columnar_consistent(
                [p.columnar for p in stored.partitions],
                [p.data for p in stored.partitions],
            )
            for synopsis, partition in zip(
                store.synopses("data"), stored.partitions
            ):
                assert synopsis.encodings == partition.columnar.encodings
                assert synopsis.n_rows == partition.n_rows


class TestConcurrentCharging:
    """The gateway's serve loop and its serving thread share these
    objects, so updates from real threads must lose nothing."""

    def test_injector_concurrent_draws_consistent(self):
        injector = FaultInjector(FaultSchedule().flaky("a", 0.5), seed=3)
        failures = []

        def worker():
            local = 0
            for _ in range(200):
                try:
                    injector.maybe_fail_read("a")
                except TransientReadError:
                    local += 1
            failures.append(local)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.n_transient == sum(failures)
        assert 0 < injector.n_transient < 1200

    def test_injector_concurrent_clock_and_state(self):
        injector = FaultInjector(FaultSchedule().crash("a", 1.0, 2.0))

        def advance():
            for _ in range(100):
                injector.advance(0.01)

        def query_state():
            for _ in range(100):
                injector.is_down("a")
                injector.down_nodes(["a", "b"])

        threads = [threading.Thread(target=advance) for _ in range(4)] + [
            threading.Thread(target=query_state) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.now == pytest.approx(4.0)
        assert not injector.is_down("a")  # window [1, 2] has passed
