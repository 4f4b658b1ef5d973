"""Unit tests for repro.engine: BDAS stack, resources, MapReduce, coordinator."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.baselines import SegmentStatsCache
from repro.common import CostMeter
from repro.cluster import ClusterTopology, DistributedStore
from repro.data import Table, gaussian_mixture_table, uniform_table
from repro.engine import (
    BDASStack,
    CoordinatorEngine,
    MapReduceEngine,
    ResourceManager,
)
from repro.engine.bdas import agent_stack
from repro.engine.mapreduce import estimate_payload_bytes, stable_hash
from repro.engine.specs import (
    BatchPartialSpec,
    GridAssignSpec,
    QueryPartialSpec,
    RowTakeSpec,
)
from repro.queries import AnalyticsQuery, Count, Mean, RangeSelection, Std
from repro.session import SEASession


@pytest.fixture
def cluster():
    topo = ClusterTopology.single_datacenter(4)
    store = DistributedStore(topo)
    store.put_table(uniform_table(1000, seed=0, name="t"), partitions_per_node=2)
    return store


class TestBDASStack:
    def test_depth_and_layers(self):
        stack = BDASStack()
        assert stack.depth == 5
        assert agent_stack().depth == 2

    def test_submission_charges_every_engaged_node(self):
        stack = BDASStack()
        meter = CostMeter()
        stack.charge_submission(meter, "driver", ["n1", "n2", "n3"])
        report = meter.freeze()
        assert report.nodes_touched == 4
        assert report.layers_crossed >= stack.depth + 3

    def test_deeper_stack_costs_more(self):
        shallow = BDASStack(layers=("client",))
        deep = BDASStack(layers=tuple(f"l{i}" for i in range(10)))
        m1, m2 = CostMeter(), CostMeter()
        t_shallow = shallow.charge_submission(m1, "d", ["n1"])
        t_deep = deep.charge_submission(m2, "d", ["n1"])
        assert t_deep > t_shallow


class TestResourceManager:
    def test_makespan_single_slot_is_sum(self):
        topo = ClusterTopology.single_datacenter(1)
        rm = ResourceManager(topo, slots_per_node=1)
        assert rm.makespan([1.0, 2.0, 3.0], n_slots=1) == pytest.approx(6.0)

    def test_makespan_parallel_slots(self):
        topo = ClusterTopology.single_datacenter(1)
        rm = ResourceManager(topo)
        assert rm.makespan([1.0] * 8, n_slots=8) == pytest.approx(1.0)
        assert rm.makespan([1.0] * 8, n_slots=4) == pytest.approx(2.0)

    def test_makespan_empty(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        assert rm.makespan([]) == 0.0

    def test_makespan_lpt_reasonable(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        # LPT on [3,3,2,2,2] with 2 slots assigns {3,2,2} and {3,2}: 7.
        # (Optimal is 6; LPT is within its 4/3 guarantee.)
        assert rm.makespan([3, 3, 2, 2, 2], n_slots=2) == pytest.approx(7.0)

    def test_makespan_per_node_is_worst_node(self):
        topo = ClusterTopology.single_datacenter(2)
        rm = ResourceManager(topo, slots_per_node=1)
        node_tasks = {"a": [1.0, 1.0], "b": [5.0]}
        assert rm.makespan_per_node(node_tasks) == pytest.approx(5.0)

    def test_negative_duration_rejected(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(1))
        with pytest.raises(ValueError):
            rm.makespan([-1.0])

    def test_queueing_delay_zero_when_idle(self):
        rm = ResourceManager(ClusterTopology.single_datacenter(4))
        assert rm.queueing_delay(0, 1.0) == 0.0
        assert rm.queueing_delay(8, 1.0) > 0.0

    def test_total_slots(self):
        topo = ClusterTopology.single_datacenter(3)
        rm = ResourceManager(topo, slots_per_node=2)
        assert rm.total_slots() == 6


class TestMapReduce:
    def test_count_rows_job(self, cluster):
        engine = MapReduceEngine(cluster)
        results, report = engine.run(
            "t",
            map_fn=lambda part: [(0, part.n_rows)],
            reduce_fn=lambda key, values: sum(values),
            n_reducers=1,
        )
        assert results[0] == 1000
        assert report.tasks_launched >= 8  # one map task per partition

    def test_scans_entire_table(self, cluster):
        engine = MapReduceEngine(cluster)
        _, report = engine.run(
            "t", lambda p: [(0, 1)], lambda k, v: len(v), n_reducers=1
        )
        assert report.bytes_scanned == cluster.table("t").n_bytes
        assert report.nodes_touched == 4

    def test_grouped_keys_route_to_reducers(self, cluster):
        engine = MapReduceEngine(cluster)
        results, _ = engine.run(
            "t",
            map_fn=lambda part: [
                (int(v > 50.0), 1.0) for v in part["x0"]
            ],
            reduce_fn=lambda key, values: len(values),
            n_reducers=2,
        )
        assert results[0] + results[1] == 1000

    def test_elapsed_grows_with_data(self):
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        store.put_table(uniform_table(1000, seed=1, name="small"))
        store.put_table(uniform_table(100000, seed=2, name="big"))
        engine = MapReduceEngine(store)
        _, small = engine.run("small", lambda p: [(0, 1)], lambda k, v: 1)
        _, big = engine.run("big", lambda p: [(0, 1)], lambda k, v: 1)
        assert big.elapsed_sec > small.elapsed_sec

    def test_stable_hash_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(1) != stable_hash(2)

    def test_estimate_payload_bytes(self):
        assert estimate_payload_bytes(1.0) == 8
        assert estimate_payload_bytes(np.zeros(10)) == 80
        assert estimate_payload_bytes("abcd") == 4
        assert estimate_payload_bytes([1.0, 2.0]) == 24
        table = Table({"a": np.zeros(4)})
        assert estimate_payload_bytes(table) == table.n_bytes


class TestCoordinator:
    def test_fetch_rows_returns_exact_rows(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        data, report = engine.fetch_rows(stored, {0: [0, 1], 2: [3]})
        assert data.n_rows == 3
        expected = stored.partitions[0].data.take([0, 1])
        assert np.allclose(data["x0"][:2], expected["x0"])

    def test_untouched_partitions_not_scanned(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        _, report = engine.fetch_rows(stored, {0: [0]})
        assert report.bytes_scanned == stored.partitions[0].data.row_bytes
        # Far fewer nodes than a full job.
        assert report.nodes_touched <= 2

    def test_empty_request_returns_empty_table(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        data, _ = engine.fetch_rows(stored, {})
        assert data.n_rows == 0
        assert data.column_names == stored.column_names

    def test_out_of_range_partition_rejected(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        with pytest.raises(Exception):
            engine.fetch_rows(stored, {99: [0]})

    def test_charge_stack_false_is_cheaper(self, cluster):
        stored = cluster.table("t")
        engine = CoordinatorEngine(cluster)
        _, with_stack = engine.fetch_rows(stored, {0: [0]})
        _, without = engine.fetch_rows(stored, {0: [0]}, charge_stack=False)
        assert without.elapsed_sec < with_stack.elapsed_sec

    def test_scatter_gather_parallel_elapsed(self, cluster):
        engine = CoordinatorEngine(cluster)
        nodes = cluster.topology.node_ids
        report = engine.scatter_gather(
            {n: 100 for n in nodes}, {n: 1000 for n in nodes}
        )
        assert report.messages == 2 * len(nodes)
        # Parallel: elapsed is one round trip, not the sum.
        single = engine.scatter_gather({nodes[0]: 100}, {nodes[0]: 1000})
        assert report.elapsed_sec < len(nodes) * single.elapsed_sec


class TestMapReduceEquivalenceProperty:
    """MapReduce partial/merge jobs must equal direct centralized compute."""

    @pytest.mark.parametrize("partitions_per_node", [1, 3])
    def test_aggregate_jobs_match_direct(self, partitions_per_node):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.queries import Count, Mean, Std, Sum

        topo = ClusterTopology.single_datacenter(3)
        store = DistributedStore(topo)
        table = uniform_table(997, seed=33, name="t")  # odd size: ragged splits
        store.put_table(table, partitions_per_node=partitions_per_node)
        engine = MapReduceEngine(store)
        for aggregate in (Count(), Sum("value"), Mean("value"), Std("value")):
            results, _ = engine.run(
                "t",
                map_fn=lambda part, agg=aggregate: [(0, agg.partial(part))],
                reduce_fn=lambda key, values, agg=aggregate: agg.merge(values),
                n_reducers=1,
            )
            direct = aggregate.compute(table)
            assert results[0] == pytest.approx(direct), aggregate.name

    def test_multi_key_grouping_sums_match(self):
        topo = ClusterTopology.single_datacenter(4)
        store = DistributedStore(topo)
        rng = np.random.default_rng(34)
        table = Table(
            {
                "group": rng.integers(0, 7, size=2000).astype(float),
                "value": rng.normal(size=2000),
            },
            name="g",
        )
        store.put_table(table, partitions_per_node=2)
        engine = MapReduceEngine(store)

        def map_fn(part):
            return [
                (int(g), float(v))
                for g, v in zip(part["group"], part["value"])
            ]

        results, _ = engine.run(
            "g", map_fn, lambda key, values: sum(values), n_reducers=3
        )
        for group in range(7):
            expected = table["value"][table["group"] == group].sum()
            assert results[group] == pytest.approx(expected)


class TestRatesInjection:
    def test_custom_rates_flow_through_engines(self):
        from repro.common import CostRates

        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        store.put_table(uniform_table(50_000, seed=40, name="t"))
        slow_disk = CostRates(disk_bytes_per_sec=1e6)
        fast = MapReduceEngine(store)
        slow = MapReduceEngine(store, rates=slow_disk)
        _, r_fast = fast.run("t", lambda p: [(0, 1)], lambda k, v: 1)
        _, r_slow = slow.run("t", lambda p: [(0, 1)], lambda k, v: 1)
        assert r_slow.elapsed_sec > r_fast.elapsed_sec * 2

    def test_coordinator_rates_injection(self):
        from repro.common import CostRates

        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        stored = store.put_table(uniform_table(5000, seed=41, name="t"))
        slow_lan = CostRates(lan_rtt_sec=0.1)
        fast = CoordinatorEngine(store)
        slow = CoordinatorEngine(store, rates=slow_lan)
        _, r_fast = fast.fetch_rows(stored, {0: list(range(100))})
        _, r_slow = slow.fetch_rows(stored, {0: list(range(100))})
        assert r_slow.elapsed_sec > r_fast.elapsed_sec * 2


class TestPartitionKernels:
    """``repro.engine.specs``: each kernel against the plain definition."""

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_engine_specs_compute_identically(self, layout):
        store = DistributedStore(ClusterTopology.single_datacenter(3), layout=layout)
        store.put_table(
            gaussian_mixture_table(2000, dims=("x0", "x1"), seed=3, name="data"),
            partitions_per_node=2,
        )
        partition = store.table("data").partitions[0]
        data = partition.data
        selections = [
            RangeSelection(("x0", "x1"), np.array([5.0, 5.0]), np.array([60.0, 70.0])),
            RangeSelection(("x0", "x1"), np.array([30.0, 0.0]), np.array([90.0, 40.0])),
        ]
        aggregates = [Count(), Std("x1")]

        def plain(selection, aggregate):
            return repr(aggregate.partial(data.select(selection.mask(data))))

        payloads = [data]
        if layout == "column":
            payloads.append(partition.columnar.project(("x0", "x1")))
        for payload in payloads:
            for aggregate in (Mean("x0"), Count(), Std("x1")):
                ((key, partial),) = QueryPartialSpec(selections[0], aggregate)(payload)
                assert key == 0
                assert repr(partial) == plain(selections[0], aggregate)
            batch = BatchPartialSpec(selections, aggregates)
            for active in (None, [1]):
                jobs = [0, 1] if active is None else active
                per_job = batch(payload) if active is None else batch(payload, active)
                assert [
                    [(key, repr(partial)) for key, partial in pairs]
                    for pairs in per_job
                ] == [[(0, plain(selections[j], aggregates[j]))] for j in jobs]
        all_idx, rows = RowTakeSpec((np.arange(4), np.array([9, 2])))(partition)
        assert all_idx.tolist() == [0, 1, 2, 3, 9]
        assert repr(rows.matrix(("x0", "x1"))) == repr(
            data.take(all_idx).matrix(("x0", "x1"))
        )
        cells = GridAssignSpec(("x0", "x1"), np.zeros(2), np.full(2, 100.0), 8)(data)
        expected = np.clip((data.matrix(["x0", "x1"]) / 100.0 * 8).astype(int), 0, 7)
        assert np.array_equal(cells, expected)


class TestInlineKernels:
    """A kernel runs where it was asked: on the calling thread, one
    partition after another, and no worker pool is importable by accident."""

    @pytest.fixture
    def stored(self, cluster):
        return cluster.table("t")

    @staticmethod
    def _recorder(stored, calls):
        index_of = {id(p.data): i for i, p in enumerate(stored.partitions)}

        def note(payload):
            data = getattr(payload, "data", payload)  # partition or its table
            calls.append((threading.get_ident(), index_of[id(data)]))

        return note

    def test_shared_passes_call_kernels_here_in_partition_order(
        self, cluster, stored, monkeypatch
    ):
        here = threading.get_ident()
        n_parts = len(stored.partitions)

        calls = []
        note = self._recorder(stored, calls)

        def multi_map_fn(data):
            note(data)
            return [[(0, data.n_rows)], [(0, 1)]]

        total = lambda key, values: sum(values)
        results = MapReduceEngine(cluster).run_many("t", multi_map_fn, [total, total])
        assert [r[0] for r, _ in results] == [stored.n_rows, n_parts]
        assert calls == [(here, i) for i in range(n_parts)]

        calls.clear()
        take = RowTakeSpec.__call__
        monkeypatch.setattr(
            RowTakeSpec,
            "__call__",
            lambda spec, partition: note(partition) or take(spec, partition),
        )
        plans = [{3: [0, 1], 0: [2]}, {5: [1], 3: [4]}]
        fetched = CoordinatorEngine(cluster).fetch_rows_many(stored, plans)
        assert [rows.n_rows for rows, _ in fetched] == [3, 2]
        assert calls == [(here, 0), (here, 3), (here, 5)]

        calls.clear()
        assign = GridAssignSpec.__call__
        monkeypatch.setattr(
            GridAssignSpec,
            "__call__",
            lambda spec, data: note(data) or assign(spec, data),
        )
        cache = SegmentStatsCache(cluster, "t", ("x0", "x1"), cells_per_dim=4)
        cache.execute(
            AnalyticsQuery(
                "t", RangeSelection(("x0", "x1"), [10.0, 10.0], [60.0, 60.0]), Count()
            )
        )
        assert calls == [(here, i) for i in range(n_parts)]

    def test_no_pool_is_imported_and_no_knob_accepts_one(self):
        code = (
            "import sys, repro, repro.session, repro.serve\n"
            "loaded = [m for m in ('multiprocessing.shared_memory', "
            "'concurrent.futures.process') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        for knob in ({"workers": 4}, {"executor": "process"}):
            with pytest.raises(TypeError):
                SEASession(n_nodes=2, **knob)
