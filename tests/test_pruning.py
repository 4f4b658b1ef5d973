"""Zone-map pruning: bit-identical answers, never-more-bytes, exact synopses.

The pruning layer's contract has three legs, each pinned here:

1. **Invisibility** — pruned execution returns bitwise-identical answers
   (and serve modes, through the agent) to unpruned execution, across
   ``execute``, ``execute_many``, and ``submit_batch``.
2. **Monotonicity** — a pruned run never charges more scan bytes than
   the unpruned run of the same query.
3. **Exactness under mutation** — partition synopses stay bitwise equal
   to fresh builds through randomized append/delete sequences, and node
   byte accounting stays consistent with the partitions actually stored.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactEngine
from repro.cluster import (
    ClusterTopology,
    ColumnStats,
    DistributedStore,
    PartitionSynopsis,
    estimate_selectivity,
    synopses_consistent,
)
from repro.common import CostMeter
from repro.core import AgentConfig, SEAAgent
from repro.data import Table, gaussian_mixture_table
from repro.engine import CoordinatorEngine, plan_scan, prune_row_plan, synopsis_partial
from repro.engine.pruning import SCAN, SKIP, SYNOPSIS
from repro.optimizer import TaskFeatures, synopsis_estimates
from repro.queries import (
    AnalyticsQuery,
    Count,
    Max,
    Mean,
    Median,
    Min,
    RadiusSelection,
    RangeSelection,
    Std,
    Sum,
    Variance,
)


def build_world(n_rows=2000, n_nodes=4, seed=5, sort_on=None):
    topo = ClusterTopology.single_datacenter(n_nodes)
    store = DistributedStore(topo)
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="data"
    )
    if sort_on is not None:
        table = table.take(np.argsort(table.column(sort_on), kind="stable"))
    store.put_table(table, partitions_per_node=2)
    return store, table


AGGREGATES = [
    Count(),
    Sum("x1"),
    Mean("x1"),
    Min("x1"),
    Max("x0"),
    Std("x1"),
    Variance("x0"),
    Median("x1"),
]


def random_query(table, rng):
    """A range or radius query, sometimes far outside the data's domain."""
    aggregate = AGGREGATES[int(rng.integers(len(AGGREGATES)))]
    x0 = table.column("x0")
    lo_d, hi_d = float(x0.min()), float(x0.max())
    kind = int(rng.integers(3))
    if kind == 0:  # interior range on the clustered column
        a, b = np.sort(rng.uniform(lo_d, hi_d, size=2))
        return AnalyticsQuery("data", RangeSelection(("x0",), [a], [b]), aggregate)
    if kind == 1:  # 2-d range, possibly disjoint from the whole table
        shift = float(rng.choice([0.0, 10 * (hi_d - lo_d + 1.0)]))
        a = rng.uniform(lo_d, hi_d, size=2) + shift
        b = a + rng.uniform(0.1, hi_d - lo_d + 0.1, size=2)
        return AnalyticsQuery(
            "data", RangeSelection(("x0", "x1"), a, b), aggregate
        )
    center = rng.uniform(lo_d, hi_d, size=2)
    radius = float(rng.uniform(0.1, (hi_d - lo_d) / 2))
    return AnalyticsQuery(
        "data", RadiusSelection(("x0", "x1"), center, radius), aggregate
    )


def assert_same_answer(a, b):
    assert np.array_equal(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ), f"{a!r} != {b!r}"


class TestSynopsisStats:
    def test_stats_match_numpy_expressions_bitwise(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=257) * 1e6
        stats = ColumnStats.from_column(col)
        assert stats.minimum == float(col.min())
        assert stats.maximum == float(col.max())
        assert stats.total == float(col.sum())
        assert stats.ftotal == float(col.astype(float).sum())
        assert stats.fsumsq == float((col.astype(float) ** 2).sum())

    @pytest.mark.parametrize(
        "col",
        [
            np.random.default_rng(1).normal(size=4099) * 1e9,
            np.array([1.5, np.nan, -2.0, 7.25] * 300),
            np.array([np.inf, 1.0, 3.0]),
            np.array([2.0, -np.inf, -1.0]),
            np.array([-0.0]),
            np.array([-0.0, 0.0, -0.0]),
            # Sums past 2**53: the int and the float-cast totals differ.
            np.random.default_rng(2).integers(2**60, 2**61, size=999),
            np.arange(-5, 6, dtype=np.int64),
            np.random.default_rng(3).normal(size=300).astype(np.float32),
            np.empty(0),
            np.empty(0, dtype=np.int64),
        ],
        ids=[
            "float64", "nan", "+inf", "-inf", "negzero", "zeros", "int64-wide",
            "int64", "float32", "empty", "empty-int",
        ],
    )
    def test_stats_bitwise_equal_the_cast_and_sum_twice_expression(self, col):
        """float64 columns skip the float cast and the second sum; all
        five stats still carry the bits of the long-hand expression."""
        if col.shape[0]:
            colf = col.astype(float)
            want = (
                float(col.min()), float(col.max()), float(col.sum()),
                float(colf.sum()), float((colf**2).sum()),
            )
        else:
            want = (float("inf"), float("-inf"), 0.0, 0.0, 0.0)
        got = astuple(ColumnStats.from_column(col))
        assert np.array(got).tobytes() == np.array(want).tobytes()
        grown = Table({"c": np.concatenate([col, col])})
        maintained = PartitionSynopsis.from_table(Table({"c": col})).appended(
            Table({"c": col}), grown
        )
        assert synopses_consistent([maintained], [grown])

    def test_empty_column_is_neutral(self):
        stats = ColumnStats.from_column(np.empty(0))
        assert stats.minimum == float("inf")
        assert stats.maximum == float("-inf")
        assert stats.total == stats.ftotal == stats.fsumsq == 0.0

    def test_empty_partition_disjoint_and_covered(self):
        synopsis = PartitionSynopsis.from_table(
            Table({"x": np.empty(0)}).slice_rows(0, 0)
        )
        assert synopsis.disjoint(("x",), [0.0], [1.0])
        assert synopsis.covered_by(("x",), [0.0], [1.0])

    def test_unknown_column_is_conservative(self):
        synopsis = PartitionSynopsis.from_table(Table({"x": np.arange(5.0)}))
        assert not synopsis.disjoint(("y",), [100.0], [200.0])
        assert not synopsis.covered_by(("y",), [-100.0], [200.0])

    def test_disjoint_uses_closed_bounds(self):
        synopsis = PartitionSynopsis.from_table(Table({"x": np.arange(5.0)}))
        # Touching boxes are not disjoint; strictly outside ones are.
        assert not synopsis.disjoint(("x",), [4.0], [9.0])
        assert synopsis.disjoint(("x",), [np.nextafter(4.0, 5.0)], [9.0])
        assert synopsis.covered_by(("x",), [0.0], [4.0])
        assert not synopsis.covered_by(("x",), [np.nextafter(0.0, 1.0)], [4.0])

    def test_footprint_counts_columns(self):
        synopsis = PartitionSynopsis.from_table(
            Table({"a": np.arange(3.0), "b": np.arange(3.0)})
        )
        assert synopsis.n_bytes == 8 + 2 * 5 * 8

    def test_estimate_selectivity_extremes(self):
        tables = [
            Table({"x": np.arange(0.0, 10.0)}),
            Table({"x": np.arange(10.0, 20.0)}),
        ]
        synopses = [PartitionSynopsis.from_table(t) for t in tables]
        assert estimate_selectivity(synopses, ("x",), [-5.0], [25.0]) == 1.0
        assert estimate_selectivity(synopses, ("x",), [50.0], [60.0]) == 0.0
        half = estimate_selectivity(synopses, ("x",), [-5.0], [9.0])
        assert 0.4 < half <= 0.6


class TestSynopsisPartials:
    def test_supported_partials_bitwise_equal_full_scan(self):
        rng = np.random.default_rng(1)
        table = Table(
            {"x0": rng.normal(size=313) * 1e3, "x1": rng.normal(size=313)}
        )
        synopsis = PartitionSynopsis.from_table(table)
        for aggregate in (
            Count(), Sum("x1"), Mean("x1"), Min("x1"), Max("x1"),
            Std("x1"), Variance("x1"),
        ):
            supported, partial = synopsis_partial(aggregate, synopsis)
            assert supported
            assert partial == aggregate.partial(table)

    def test_holistic_and_unknown_column_unsupported(self):
        synopsis = PartitionSynopsis.from_table(Table({"x": np.arange(4.0)}))
        assert synopsis_partial(Median("x"), synopsis) == (False, None)
        assert synopsis_partial(Sum("nope"), synopsis) == (False, None)


class TestPlanScan:
    def test_clustered_narrow_box_skips_most_partitions(self):
        store, table = build_world(sort_on="x0")
        x0 = np.sort(table.column("x0"))
        lo, hi = float(x0[int(0.45 * len(x0))]), float(x0[int(0.55 * len(x0))])
        plan = plan_scan(
            store.synopses("data"), RangeSelection(("x0",), [lo], [hi]), Sum("x1")
        )
        assert plan.n_skipped >= len(plan.actions) // 2
        assert not plan.prunes_nothing

    def test_full_box_short_circuits_everything_for_sum(self):
        store, table = build_world(sort_on="x0")
        x0 = table.column("x0")
        plan = plan_scan(
            store.synopses("data"),
            RangeSelection(("x0",), [float(x0.min())], [float(x0.max())]),
            Sum("x1"),
        )
        assert plan.n_covered == len(plan.actions)
        assert all(a == SYNOPSIS for a in plan.actions)

    def test_radius_selection_never_short_circuits(self):
        store, table = build_world(sort_on="x0")
        selection = RadiusSelection(
            ("x0", "x1"), np.zeros(2), 1e9
        )  # box covers everything, but the box is not the semantics
        plan = plan_scan(store.synopses("data"), selection, Sum("x1"))
        assert plan.n_covered == 0

    def test_no_aggregate_means_skip_or_scan_only(self):
        store, table = build_world(sort_on="x0")
        x0 = table.column("x0")
        plan = plan_scan(
            store.synopses("data"),
            RangeSelection(("x0",), [float(x0.min())], [float(x0.max())]),
            aggregate=None,
        )
        assert plan.n_covered == 0
        assert plan.n_scanned == len(plan.actions)


class TestPrunedExecutionEquivalence:
    @given(seed=st.integers(0, 60), n_queries=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_answers_identical_and_bytes_monotone(self, seed, n_queries):
        store, table = build_world(sort_on="x0")
        rng = np.random.default_rng(seed)
        queries = [random_query(table, rng) for _ in range(n_queries)]
        pruned = ExactEngine(store)
        unpruned = ExactEngine(store, pruning=False)
        for query in queries:
            pruned_answer, pruned_report = pruned.execute(query)
            unpruned_answer, unpruned_report = unpruned.execute(query)
            assert_same_answer(pruned_answer, unpruned_answer)
            assert pruned_report.bytes_scanned <= unpruned_report.bytes_scanned
            assert pruned_report.elapsed_sec <= unpruned_report.elapsed_sec

    @given(seed=st.integers(0, 60), n_queries=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_batched_equals_sequential_with_pruning(self, seed, n_queries):
        store, table = build_world(sort_on="x0")
        rng = np.random.default_rng(seed)
        queries = [random_query(table, rng) for _ in range(n_queries)]
        engine = ExactEngine(store)
        sequential = [engine.execute(q) for q in queries]
        batched = engine.execute_many(queries)
        for (seq_answer, seq_report), (bat_answer, bat_report) in zip(
            sequential, batched
        ):
            assert_same_answer(seq_answer, bat_answer)
            assert seq_report.__dict__ == bat_report.__dict__

    def test_fully_pruned_query_matches_unpruned_neutral_answer(self):
        store, table = build_world(sort_on="x0")
        far = float(table.column("x0").max()) + 1e6
        for aggregate in AGGREGATES:
            query = AnalyticsQuery(
                "data",
                RangeSelection(("x0",), [far], [far + 1.0]),
                aggregate,
            )
            pruned_answer, pruned_report = ExactEngine(store).execute(query)
            unpruned_answer, _ = ExactEngine(store, pruning=False).execute(query)
            assert_same_answer(pruned_answer, unpruned_answer)
            assert pruned_report.bytes_scanned == 0

    def test_agent_serving_unchanged_by_pruning(self):
        store, table = build_world(sort_on="x0")
        rng = np.random.default_rng(11)
        queries = [
            AnalyticsQuery(
                "data",
                RangeSelection(
                    ("x0", "x1"),
                    *(lambda a, b: (np.minimum(a, b), np.maximum(a, b)))(
                        rng.uniform(0, 100, size=2), rng.uniform(0, 100, size=2)
                    ),
                ),
                Count(),
            )
            for _ in range(24)
        ]
        config = AgentConfig(training_budget=8, error_threshold=0.5)
        pruned_agent = SEAAgent(ExactEngine(store), config)
        unpruned_agent = SEAAgent(ExactEngine(store, pruning=False), config)
        pruned_records = pruned_agent.submit_batch(queries)
        unpruned_records = [unpruned_agent.submit(q) for q in queries]
        for a, b in zip(pruned_records, unpruned_records):
            assert a.mode == b.mode
            assert_same_answer(a.answer, b.answer)


class TestCoordinatorFetchPruning:
    def _world(self):
        store, table = build_world(sort_on="x0")
        stored = store.table("data")
        # Ask for the first few rows of every partition; only partitions
        # overlapping the selection's box can contribute matching rows.
        rows = {i: list(range(3)) for i in range(len(stored.partitions))}
        x0 = np.sort(table.column("x0"))
        lo, hi = float(x0[len(x0) // 2]), float(x0[-1])
        selection = RangeSelection(("x0",), [lo], [hi])
        return store, stored, rows, selection

    def test_pruned_fetch_filters_to_identical_rows_for_less(self):
        store, stored, rows, selection = self._world()
        engine = CoordinatorEngine(store)
        full, full_report = engine.fetch_rows(stored, dict(rows))
        pruned, pruned_report = engine.fetch_rows(
            stored, dict(rows), selection=selection
        )
        assert pruned_report.bytes_scanned < full_report.bytes_scanned
        kept_full = full.select(selection.mask(full))
        kept_pruned = pruned.select(selection.mask(pruned))
        assert kept_full.n_rows == kept_pruned.n_rows
        for column in kept_full.column_names:
            assert np.array_equal(
                np.sort(kept_full.column(column)),
                np.sort(kept_pruned.column(column)),
            )

    def test_fetch_rows_many_applies_per_plan_selections(self):
        store, stored, rows, selection = self._world()
        engine = CoordinatorEngine(store)
        (pruned, pruned_report), (full, full_report) = engine.fetch_rows_many(
            stored, [dict(rows), dict(rows)], selections=[selection, None]
        )
        solo, solo_report = engine.fetch_rows(
            stored, dict(rows), selection=selection
        )
        assert pruned.n_rows == solo.n_rows
        assert pruned_report.__dict__ == solo_report.__dict__
        assert full.n_rows > pruned.n_rows

    def test_prune_row_plan_is_conservative_without_synopses(self):
        synopses = []
        kept, pruned = prune_row_plan(
            synopses, {0: [1, 2]}, RangeSelection(("x0",), [0.0], [1.0])
        )
        assert kept == {0: [1, 2]}
        assert pruned == 0


class TestNaNNeverProvesAZone:
    """A NaN row makes ``min()``/``max()`` NaN; no zone claim may pass on it."""

    N_ROWS = 4000

    def _store(self, layout, nan_in):
        rng = np.random.default_rng(3)
        columns = {
            "a": rng.uniform(0.0, 10.0, self.N_ROWS),
            "v": rng.uniform(0.0, 1.0, self.N_ROWS),
        }
        columns[nan_in][1234] = np.nan
        store = DistributedStore(
            ClusterTopology.single_datacenter(4), layout=layout
        )
        store.put_table(Table(columns, name="data"), partitions_per_node=2)
        return store

    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("aggregate", [Count(), Sum("v")], ids=repr)
    @pytest.mark.parametrize("nan_in", ["a", "v"])
    def test_execute_equals_ground_truth(self, layout, aggregate, nan_in):
        store = self._store(layout, nan_in)
        # The box contains every finite value of ``a``: each partition
        # looks covered to a test that only tries to refute it.
        query = AnalyticsQuery(
            "data", RangeSelection(("a",), [-1.0], [11.0]), aggregate
        )
        engine = ExactEngine(store)
        truth = engine.ground_truth(query)
        answer, _ = engine.execute(query)
        unpruned, _ = ExactEngine(store, pruning=False).execute(query)
        assert np.array_equal(answer, truth, equal_nan=True)
        assert np.array_equal(unpruned, truth, equal_nan=True)
        if nan_in == "a" and isinstance(aggregate, Count):
            assert answer == self.N_ROWS - 1  # no range selects the NaN row
        if nan_in == "v" and isinstance(aggregate, Sum):
            assert np.isnan(answer)  # ...but SUM over it is NaN, as scanned

    def test_nan_zone_is_neither_covered_nor_disjoint(self):
        col = np.array([1.0, np.nan, 3.0])
        synopsis = PartitionSynopsis(3, {"a": ColumnStats.from_column(col)})
        assert not synopsis.covered_by(("a",), [0.0], [5.0])
        assert not synopsis.disjoint(("a",), [10.0], [20.0])
        # NaN query bounds select nothing and prove nothing either.
        clean = PartitionSynopsis(
            2, {"a": ColumnStats.from_column(np.array([1.0, 3.0]))}
        )
        assert not clean.covered_by(("a",), [np.nan], [5.0])
        assert not clean.disjoint(("a",), [np.nan], [np.nan])

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_append_keeps_the_nan_in_the_zone(self, nan_first):
        clean = Table({"a": np.array([1.0, 2.0])}, name="data")
        dirty = Table({"a": np.array([np.nan])}, name="data")
        base, piece = (dirty, clean) if nan_first else (clean, dirty)
        grown = Table.concat([base, piece], name="data")
        synopsis = PartitionSynopsis.from_table(base).appended(piece, grown)
        assert np.isnan(synopsis.stats("a").minimum)
        assert np.isnan(synopsis.stats("a").maximum)
        assert synopses_consistent([synopsis], [grown])
        assert not synopsis.covered_by(("a",), [0.0], [5.0])

    def test_encoded_mask_skips_only_proven_conjuncts(self):
        from repro.cluster import ColumnarPartition
        from repro.engine.colscan import encoded_mask

        rng = np.random.default_rng(9)
        n = 600
        for holed in (False, True):
            ts = np.repeat(np.arange(n // 100, dtype=float), 100)  # RLE
            cat = rng.integers(0, 7, n).astype(float)  # dictionary
            x0 = rng.uniform(0.0, 10.0, n)  # raw
            if holed:
                ts[250] = cat[7] = x0[599] = np.nan
            table = Table({"ts": ts, "cat": cat, "x0": x0}, name="data")
            part = ColumnarPartition.from_table(table)
            for lows, highs in (
                ([-1.0, -1.0, -1.0], [99.0, 99.0, 99.0]),  # all cover
                ([-1.0, 2.0, -1.0], [99.0, 4.0, 99.0]),  # one residual
                ([1.0, -1.0, 3.0], [4.0, 99.0, 3.5]),  # first one covers
            ):
                selection = RangeSelection(("ts", "cat", "x0"), lows, highs)
                mask = encoded_mask(part, selection)
                assert mask.dtype == bool
                assert np.array_equal(mask, selection.mask(table))


class TestMutationKeepsSynopsesExact:
    def _piece(self, rng, n_rows):
        return Table(
            {
                "x0": rng.normal(size=n_rows) * 50.0,
                "x1": rng.normal(size=n_rows) * 50.0,
                "value": rng.normal(size=n_rows),
            },
            name="data",
        )

    def _assert_consistent(self, store):
        stored = store.table("data")
        assert synopses_consistent(
            store.synopses("data"), [p.data for p in stored.partitions]
        )
        expected = {}
        for partition in stored.partitions:
            for node_id in partition.all_nodes:
                expected[node_id] = expected.get(node_id, 0) + partition.n_bytes
        for node_id in store.topology.node_ids:
            assert store.topology.node(node_id).stored_bytes == expected.get(
                node_id, 0
            )

    @given(seed=st.integers(0, 80), n_ops=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_randomized_append_delete(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        store, _ = build_world(n_rows=400, seed=seed)
        self._assert_consistent(store)
        for _ in range(n_ops):
            if rng.random() < 0.5:
                # Includes n_rows < n_partitions (zero-row pieces) and 0.
                store.append_rows("data", self._piece(rng, int(rng.integers(0, 40))))
            else:
                threshold = float(rng.uniform(-100.0, 100.0))
                store.delete_rows("data", lambda t: t.column("x0") > threshold)
            self._assert_consistent(store)

    def test_delete_everything_leaves_prunable_empty_partitions(self):
        store, table = build_world(n_rows=300)
        deleted = store.delete_rows("data", lambda t: np.ones(t.n_rows, bool))
        assert deleted == 300
        self._assert_consistent(store)
        for synopsis in store.synopses("data"):
            assert synopsis.n_rows == 0
            assert synopsis.disjoint(("x0",), [-1e12], [1e12])
        # A query over the emptied table still answers (neutral merges).
        query = AnalyticsQuery(
            "data", RangeSelection(("x0",), [-1e12], [1e12]), Count()
        )
        answer, report = ExactEngine(store).execute(query)
        assert answer == 0.0
        assert report.bytes_scanned == 0

    def test_zero_row_append_is_a_noop(self):
        store, _ = build_world(n_rows=200)
        rng = np.random.default_rng(0)
        before = [
            store.topology.node(n).stored_bytes for n in store.topology.node_ids
        ]
        store.append_rows("data", self._piece(rng, 0))
        after = [
            store.topology.node(n).stored_bytes for n in store.topology.node_ids
        ]
        assert before == after
        self._assert_consistent(store)


class TestMatrixSatellite:
    def test_matrix_values_unchanged_for_float_and_int_columns(self):
        table = Table(
            {"f": np.arange(5, dtype=np.float64), "i": np.arange(5, dtype=np.int64)}
        )
        mat = table.matrix()
        assert mat.dtype == np.float64
        assert np.array_equal(mat[:, 0], np.arange(5.0))
        assert np.array_equal(mat[:, 1], np.arange(5.0))

    def test_matrix_result_is_a_copy(self):
        table = Table({"f": np.arange(4, dtype=np.float64)})
        mat = table.matrix()
        mat[0, 0] = 123.0
        assert table.column("f")[0] == 0.0


class TestPruningObservability:
    def test_counters_and_decision_event_flow_through_obs(self):
        from repro.obs import StackObserver

        store, table = build_world(sort_on="x0")
        x0 = np.sort(table.column("x0"))
        lo, hi = float(x0[len(x0) // 3]), float(x0[len(x0) // 2])
        query = AnalyticsQuery(
            "data", RangeSelection(("x0",), [lo], [hi]), Sum("x1")
        )
        engine = ExactEngine(store)
        obs = StackObserver()
        engine.attach_observer(obs)
        engine.execute(query)
        flat = obs.metrics.as_dict()
        skipped = flat.get('prune_partitions_skipped_total{table="data"}', 0.0)
        scanned = flat.get('prune_partitions_scanned_total{table="data"}', 0.0)
        covered = flat.get('prune_partitions_covered_total{table="data"}', 0.0)
        assert skipped > 0
        assert skipped + scanned + covered == len(
            store.table("data").partitions
        )
        (event,) = obs.events.of_type("pruning")
        assert event.fields["table"] == "data"
        assert event.fields["skipped"] == skipped

    def test_unpruned_engine_emits_no_pruning_telemetry(self):
        from repro.obs import StackObserver

        store, table = build_world(sort_on="x0")
        query = AnalyticsQuery(
            "data", RangeSelection(("x0",), [0.0], [1.0]), Count()
        )
        engine = ExactEngine(store, pruning=False)
        obs = StackObserver()
        engine.attach_observer(obs)
        engine.execute(query)
        assert not any(
            key.startswith("prune_") for key in obs.metrics.as_dict()
        )
        assert list(obs.events.of_type("pruning")) == []


class TestSynopsisFeatures:
    def test_synopsis_estimates_feed_fixed_shape_features(self):
        store, table = build_world(sort_on="x0")
        x0 = table.column("x0")
        selection = RangeSelection(
            ("x0",), [float(x0.min())], [float(np.median(x0))]
        )
        est, frac = synopsis_estimates(store.synopses("data"), selection)
        assert 0.0 <= est <= 1.0
        assert 0.0 < frac <= 1.0
        with_synopses = TaskFeatures.for_subspace_aggregate(
            table.n_rows, 0.5, 1, 4, est_selectivity=est, scan_fraction=frac
        )
        without = TaskFeatures.for_subspace_aggregate(table.n_rows, 0.5, 1, 4)
        assert with_synopses.names == without.names
        assert with_synopses["scan_fraction"] == frac

    def test_empty_synopses_default_to_full_scan(self):
        selection = RangeSelection(("x0",), [0.0], [1.0])
        assert synopsis_estimates([], selection) == (1.0, 1.0)


class TestBoundingBoxHoisting:
    def test_box_computed_once_per_selection(self):
        selection = RangeSelection(("x0", "x1"), [0.0, 0.0], [1.0, 1.0])
        calls = []
        original = selection.bounding_box
        selection.bounding_box = lambda: calls.append(1) or original()
        first = selection.box()
        second = selection.box()
        assert len(calls) == 1
        assert first is second
        np.testing.assert_array_equal(first[0], [0.0, 0.0])

    def test_plan_scan_consults_box_once_across_partitions(self, store):
        rng = np.random.default_rng(2)
        table = Table(
            {"x0": rng.normal(size=2000), "x1": rng.normal(size=2000)},
            name="boxy",
        )
        store.put_table(table, partitions_per_node=4)  # 16 partitions
        synopses = store.synopses("boxy")
        selection = RangeSelection(("x0", "x1"), [-0.5, -0.5], [0.5, 0.5])
        calls = []
        original = selection.bounding_box
        selection.bounding_box = lambda: calls.append(1) or original()
        plan_scan(synopses, selection, Count(), emit_key=0)
        assert len(calls) == 1

    def test_box_cache_is_per_instance(self):
        a = RangeSelection(("x0",), [0.0], [1.0])
        b = RangeSelection(("x0",), [2.0], [3.0])
        assert a.box()[0][0] == 0.0
        assert b.box()[0][0] == 2.0
        assert a.box() is not b.box()
