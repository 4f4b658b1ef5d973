"""Durable streaming ingestion: WAL, deltas, compaction, recovery (DESIGN §13)."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ClusterTopology, DistributedStore
from repro.cluster.columnar import columnar_consistent
from repro.cluster.synopsis import synopses_consistent
from repro.common.errors import (
    ConfigurationError,
    FaultError,
    RecoveryError,
    StorageError,
    WriteCrashError,
    WriteError,
)
from repro.data import gaussian_mixture_table
from repro.data.tabular import Table
from repro.faults import FaultInjector
from repro.ingest import (
    DeltaPartition,
    IngestConfig,
    WAL_APPEND,
    WAL_EPOCH,
    WriteAheadLog,
)
from repro.queries import AnalyticsQuery, Count, RangeSelection, Sum
from repro.session import SEASession
from tests.test_sorted_span import arrivals
from tests.test_table import brute_sorted


def make_table(n=400, seed=3, name="data"):
    return gaussian_mixture_table(n, dims=("x0", "x1"), seed=seed, name=name)


def make_batch(n, seed, name="data", lo=0.0, hi=100.0):
    rng = np.random.default_rng(seed)
    return Table(
        {
            "x0": rng.uniform(lo, hi, n),
            "x1": rng.uniform(lo, hi, n),
            "value": rng.uniform(0.0, 1.0, n),
        },
        name=name,
    )


def ingest_store(layout="row", n_nodes=4, epoch_seconds=1.0, table=None):
    store = DistributedStore(
        ClusterTopology.single_datacenter(n_nodes), layout=layout
    )
    if table is not None:
        store.put_table(table, partitions_per_node=2)
    pipeline = store.enable_ingest(IngestConfig(epoch_seconds=epoch_seconds))
    return store, pipeline

def tables_equal(a: Table, b: Table) -> bool:
    if a.column_names != b.column_names or a.n_rows != b.n_rows:
        return False
    return all(
        np.array_equal(a.column(c), b.column(c), equal_nan=True)
        for c in a.column_names
    )


def store_image(store, name="data"):
    return store.table(name).full_table()


def views_equal(store, other, name="data"):
    """Partition by partition, not only the concatenated image."""
    pairs = zip(store.table(name).partitions, other.table(name).partitions)
    return all(tables_equal(a.read_view(), b.read_view()) for a, b in pairs)


def node_stored_bytes(store):
    return {node.node_id: node.stored_bytes for node in store.topology.nodes}


def verify_store(store, name="data"):
    stored = store.table(name)
    views = [p.read_view() for p in stored.partitions]
    assert synopses_consistent(store.synopses(name), [p.data for p in stored.partitions])
    if all(p.columnar is not None for p in stored.partitions):
        assert columnar_consistent(
            [p.columnar for p in stored.partitions],
            [p.data for p in stored.partitions],
        )
    return views


# ---------------------------------------------------------------------------
# WAL unit behaviour
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_sync_scan_roundtrip(self):
        wal = WriteAheadLog()
        lsns = [
            wal.append(WAL_APPEND, {"table": "data", "i": i}, epoch=0)
            for i in range(5)
        ]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.pending_records == 5 and wal.disk_bytes == 0
        flushed = wal.sync()
        assert flushed == wal.disk_bytes > 0
        assert wal.synced_lsn == 5 and wal.pending_records == 0
        records, torn = wal.scan()
        assert torn == 0
        assert [r.lsn for r in records] == lsns
        assert [r.payload["i"] for r in records] == list(range(5))

    def test_empty_wal_scans_clean(self):
        records, torn = WriteAheadLog().scan()
        assert records == [] and torn == 0

    def test_unsynced_records_do_not_survive_crash(self):
        wal = WriteAheadLog()
        wal.append(WAL_APPEND, {"i": 0}, epoch=0)
        wal.sync()
        wal.append(WAL_APPEND, {"i": 1}, epoch=0)
        wal.crash(cut=None)
        records, torn = wal.scan()
        assert torn == 0
        assert [r.payload["i"] for r in records] == [0]

    def test_torn_tail_is_detected_and_physically_truncated(self):
        wal = WriteAheadLog()
        wal.append(WAL_APPEND, {"i": 0}, epoch=0)
        wal.sync()
        wal.append(WAL_APPEND, {"i": 1}, epoch=0)
        torn_written = wal.crash(cut=lambda n: n // 2)
        assert torn_written > 0
        before = wal.disk_bytes
        records, torn = wal.scan()
        assert torn == torn_written
        assert [r.payload["i"] for r in records] == [0]
        assert wal.disk_bytes == before - torn_written
        # Idempotent: the tail is gone from the durable image.
        records2, torn2 = wal.scan()
        assert torn2 == 0 and len(records2) == 1

    def test_checksum_mismatch_truncates_from_corruption(self):
        wal = WriteAheadLog()
        for i in range(3):
            wal.append(WAL_APPEND, {"i": i}, epoch=0)
        wal.sync()
        clean, _ = WriteAheadLog().scan()
        # Flip one byte inside the *last* record's payload region.
        wal._disk[-1] ^= 0xFF
        records, torn = wal.scan()
        assert torn > 0
        assert [r.payload["i"] for r in records] == [0, 1]

    def test_lsn_continues_after_recovery_scan(self):
        wal = WriteAheadLog()
        wal.append(WAL_APPEND, {}, epoch=0)
        wal.sync()
        fresh = WriteAheadLog()
        fresh._disk = bytearray(wal._disk)
        fresh.scan()
        assert fresh.next_lsn == 2 and fresh.synced_lsn == 1

    def test_prune_through_reclaims_only_applied_records(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append(WAL_APPEND, {"i": i}, epoch=0)
        wal.sync()
        reclaimed = wal.prune_through(2)
        assert reclaimed > 0
        records, _ = wal.scan()
        assert [r.lsn for r in records] == [3, 4]


# ---------------------------------------------------------------------------
# Delta partitions
# ---------------------------------------------------------------------------
class TestDeltaPartition:
    def test_append_stamps_lsns_and_counts(self):
        delta = DeltaPartition(10)
        assert not delta.dirty
        delta.append(make_batch(4, 1), lsn=7)
        delta.append(make_batch(2, 2), lsn=9)
        assert delta.dirty and delta.n_rows == 6
        assert (delta.first_lsn, delta.last_lsn) == (7, 9)
        assert delta.n_bytes > 0

    def test_delete_splits_mask_between_base_and_memtable(self):
        delta = DeltaPartition(3)
        delta.append(make_batch(2, 5), lsn=1)
        mask = np.array([True, False, False, False, True])
        assert delta.delete(mask, lsn=2) == 2
        assert delta.n_deleted == 1 and delta.n_rows == 1
        assert delta.live_base_rows == 2

    def test_no_hit_delete_does_not_stamp(self):
        delta = DeltaPartition(3)
        assert delta.delete(np.zeros(3, dtype=bool), lsn=5) == 0
        assert not delta.dirty and delta.last_lsn == 0

    def test_synopsis_is_cached_per_version(self):
        delta = DeltaPartition(0)
        delta.append(make_batch(8, 3), lsn=1)
        first = delta.synopsis()
        assert first is delta.synopsis()
        delta.append(make_batch(1, 4), lsn=2)
        assert delta.synopsis() is not first

    def test_synopsis_is_a_zone_map_without_sums(self):
        delta = DeltaPartition(0)
        assert delta.synopsis() is None
        batch = make_batch(8, 3)
        delta.append(batch, lsn=1)
        zone = delta.synopsis()
        assert zone.n_rows == 8
        assert zone.zone("x0") == (batch["x0"].min(), batch["x0"].max())
        assert not hasattr(zone, "stats") and not hasattr(zone, "columns")
        assert zone.disjoint(("x0",), [200.0], [300.0])
        assert not zone.disjoint(("x0", "nope"), [0.0, 0.0], [100.0, 1.0])


# ---------------------------------------------------------------------------
# Write path: immediate visibility, byte-identity, typed errors
# ---------------------------------------------------------------------------
class TestIngestWritePath:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_staged_writes_match_legacy_synchronous_store(self, layout):
        table = make_table(500)
        batches = [make_batch(37, s) for s in (11, 12)]

        legacy = DistributedStore(
            ClusterTopology.single_datacenter(4), layout=layout
        )
        legacy.put_table(table, partitions_per_node=2)
        store, pipeline = ingest_store(layout=layout, table=table)
        for batch in batches:
            legacy.append_rows("data", batch)
            store.append_rows("data", batch)
        predicate = lambda t: t.column("x0") > 80.0
        legacy.delete_rows("data", predicate)
        store.delete_rows("data", predicate)

        # Pre-compaction: the base+delta view is element-identical.
        assert tables_equal(store_image(store), store_image(legacy))
        assert views_equal(store, legacy)
        assert pipeline.pending_delta_rows > 0
        pipeline.flush()
        assert pipeline.pending_delta_rows == 0
        assert tables_equal(store_image(store), store_image(legacy))
        assert views_equal(store, legacy)
        verify_store(store)

    def test_append_visible_before_any_epoch_close(self):
        store, pipeline = ingest_store(table=make_table(200))
        before = store.table("data").n_rows
        lsn = store.ingest.append("data", make_batch(30, 9))
        assert lsn > 0
        assert store.table("data").n_rows == before + 30
        assert pipeline.n_epochs_closed == 0

    def test_staged_writes_do_not_bump_generation(self):
        store, pipeline = ingest_store(table=make_table(200))
        generations = [p.generation for p in store.table("data").partitions]
        store.append_rows("data", make_batch(40, 1))
        assert [
            p.generation for p in store.table("data").partitions
        ] == generations
        pipeline.flush()
        after = [p.generation for p in store.table("data").partitions]
        assert all(b >= a for a, b in zip(generations, after))
        assert any(b == a + 1 for a, b in zip(generations, after))

    def test_node_accounting_tracks_delta_then_compaction(self):
        table = make_table(300)
        store, pipeline = ingest_store(table=table)
        base = node_stored_bytes(store)
        store.append_rows("data", make_batch(50, 2))
        staged = node_stored_bytes(store)
        assert sum(staged.values()) > sum(base.values())
        pipeline.flush()
        compacted = node_stored_bytes(store)
        expected = {
            node.node_id: sum(
                p.stored_bytes
                for p in store.table("data").partitions
                if node.node_id in ([p.primary_node] + list(p.replica_nodes))
            )
            for node in store.topology.nodes
        }
        assert compacted == expected

    def test_unknown_table_raises_write_error(self):
        store, _ = ingest_store(table=make_table(100))
        with pytest.raises(WriteError) as excinfo:
            store.append_rows("ghost", make_batch(5, 1, name="ghost"))
        assert isinstance(excinfo.value, FaultError)
        assert excinfo.value.point == "append"
        with pytest.raises(WriteError):
            store.delete_rows("ghost", lambda t: t.column("x0") > 0)

    def test_schema_mismatch_raises_configuration_error(self):
        store, _ = ingest_store(table=make_table(100))
        bad = Table({"x0": np.arange(3.0)}, name="data")
        with pytest.raises(ConfigurationError):
            store.append_rows("data", bad)

    def test_empty_append_is_a_noop(self):
        store, pipeline = ingest_store(table=make_table(100))
        lsn = store.ingest.append("data", make_batch(0, 1))
        assert lsn == 0
        assert pipeline.wal.pending_records == 0
        assert pipeline.pending_delta_rows == 0


# ---------------------------------------------------------------------------
# Where an append lands: partitions fill in index order
# ---------------------------------------------------------------------------
write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 400)),
        st.tuples(st.just("delete"), st.floats(0.0, 100.0)),
        st.tuples(st.just("flush"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def dirty_indices(store, name="data"):
    return [p.index for p in store.table(name).partitions if p.dirty]


def hits_value(value, column="x0"):
    """A delete predicate matching the rows whose ``column`` is ``value``."""
    return lambda t: t.column(column) == value


class TestPlacement:
    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(1, 300), ops=write_ops)
    def test_every_batch_lands_once_in_order_within_capacity(
        self, n_rows, ops
    ):
        table = make_table(n_rows)
        legacy = DistributedStore(ClusterTopology.single_datacenter(4))
        legacy.put_table(table, partitions_per_node=2)
        store, pipeline = ingest_store(table=table)
        partitions = store.table("data").partitions
        for step, (kind, arg) in enumerate(ops):
            if kind == "append":
                before = [p.n_rows for p in partitions]
                cap = 2 * -(-(sum(before) + arg) // len(before))
                ranges = store.table("data").placement(arg)
                indices = [index for index, _, _ in ranges]
                starts = [start for _, start, _ in ranges]
                stops = [stop for _, _, stop in ranges]
                # Contiguous, in order, each row once, partitions ascending.
                assert indices == sorted(set(indices))
                assert starts == [0] + stops[:-1] and stops[-1] == arg
                assert all(a < b for a, b in zip(starts, stops))
                batch = make_batch(arg, step)
                legacy.append_rows("data", batch)
                store.append_rows("data", batch)
                grown = dict(zip(indices, np.subtract(stops, starts)))
                for partition, was in zip(partitions, before):
                    now = partition.n_rows
                    assert now == was + grown.get(partition.index, 0)
                    assert now <= max(was, cap)
            elif kind == "delete":
                band = lambda t, at=arg: np.abs(t.column("x0") - at) < 10.0
                legacy.delete_rows("data", band)
                store.delete_rows("data", band)
            else:
                pipeline.flush()
            assert views_equal(store, legacy)

    def test_a_tail_count_scans_at_most_two_partitions(self):
        from repro.baselines.exact import ExactEngine
        from repro.engine.pruning import SCAN

        batch, rows = 16, 4_000
        store, pipeline = ingest_store(table=arrivals(0.0, rows, 1))
        engine = ExactEngine(store)
        rng = np.random.default_rng(3)
        last, frontier = rows - 1.0, 0.0
        for cycle in range(300):
            store.append_rows("data", arrivals(last + 1.0, batch, cycle + 10))
            last += batch
            depth = float(rng.integers(2 * batch, 16 * batch))
            query = AnalyticsQuery(
                "data",
                RangeSelection(
                    ("ts", "x0"), (last - depth, 10.0), (last, 90.0)
                ),
                Count(),
            )
            assert engine.plan_for(query).actions.count(SCAN) <= 2
            if cycle % 10 == 9:  # oldest first, keeping the table level
                low, frontier = frontier, frontier + 10 * batch
                oldest = lambda t, lo=low, hi=frontier: (
                    (t.column("ts") >= lo) & (t.column("ts") < hi)
                )
                store.delete_rows("data", oldest)
                assert pipeline.flush()["partitions_compacted"] <= 4
        value, _ = engine.execute(query)
        assert value == engine.ground_truth(query)

    def test_the_wal_stays_pruned_while_one_partition_takes_every_append(
        self,
    ):
        store, pipeline = ingest_store(table=make_table(4_000))
        for epoch in range(40):
            if epoch == 20:  # a recovered base is its checkpoint's again
                pipeline.crash()
                store.recover()
            store.append_rows("data", make_batch(8, epoch))
            assert dirty_indices(store) == [0]
            synced = pipeline.flush()["synced_bytes"]
            assert pipeline.wal.disk_bytes <= synced

    def test_a_stale_checkpoint_keeps_its_floor(self):
        store, pipeline = ingest_store(table=make_table(400))
        injector = FaultInjector(seed=7)
        store.attach_faults(injector)
        first, second = store.table("data").partitions[:2]
        store.append_rows("data", make_batch(20, 1))  # lands on the first
        injector.inject_write_faults(
            "checkpoint", count=pipeline.config.retry_limit + 1
        )
        with pytest.raises(WriteError):
            pipeline.flush()  # merged, but its checkpoint write gave up
        stale = pipeline._checkpoints[("data", first.index)]
        assert not first.dirty and stale.generation != first.generation
        # Another epoch closes over a write the first partition never sees.
        assert store.delete_rows("data", hits_value(second.data["x0"][0])) == 1
        pipeline.flush()
        assert stale.applied_lsn == 0
        image = store_image(store)
        pipeline.crash()
        store.recover()
        assert tables_equal(store_image(store), image)
        verify_store(store)

    def test_a_delete_logs_only_the_masks_that_hit(self):
        store, pipeline = ingest_store(
            table=make_table(400), epoch_seconds=100.0
        )
        target = store.table("data").partitions[3].data["x0"][0]
        assert store.delete_rows("data", hits_value(target)) == 1
        pipeline.wal.sync()
        records, _ = pipeline.wal.scan()
        assert list(records[-1].payload["masks"]) == [3]
        image = store_image(store)
        pipeline.crash()
        assert store.recover().records_replayed == 1
        assert tables_equal(store_image(store), image)


# ---------------------------------------------------------------------------
# Reads over dirty partitions: engines, pruning, degraded mode
# ---------------------------------------------------------------------------
class TestDirtyReads:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_exact_engine_answers_include_staged_rows(self, layout):
        from repro.baselines.exact import ExactEngine

        table = make_table(600)
        store, pipeline = ingest_store(layout=layout, table=table)
        engine = ExactEngine(store)
        query = AnalyticsQuery(
            "data",
            RangeSelection(("x0", "x1"), (10.0, 10.0), (70.0, 70.0)),
            Count(),
        )
        before, _ = engine.execute(query)
        store.append_rows(
            "data", make_batch(25, 21, lo=20.0, hi=60.0)
        )
        staged, _ = engine.execute(query)
        assert staged == before + 25
        assert staged == engine.ground_truth(query)
        pipeline.flush()
        compacted, _ = engine.execute(query)
        assert compacted == staged

    def test_dirty_partitions_downgrade_synopsis_to_scan(self):
        from repro.baselines.exact import ExactEngine
        from repro.engine.pruning import SCAN, SYNOPSIS

        table = make_table(600)
        store, pipeline = ingest_store(table=table)
        engine = ExactEngine(store)
        query = AnalyticsQuery(
            "data",
            RangeSelection(("x0", "x1"), (-1e9, -1e9), (1e9, 1e9)),
            Count(),
        )
        plan = engine.plan_for(query)
        assert plan is not None and plan.n_covered == len(plan.actions)
        store.append_rows("data", make_batch(16, 5))
        dirty_plan = engine.plan_for(query)
        dirty = [p.dirty for p in store.table("data").partitions]
        assert any(dirty)
        for flag, action in zip(dirty, dirty_plan.actions):
            assert action == (SCAN if flag else SYNOPSIS)
        value, _ = engine.execute(query)
        assert value == engine.ground_truth(query)
        pipeline.flush()
        assert engine.plan_for(query).n_covered == len(plan.actions)

    def test_skip_survives_only_when_delta_is_also_disjoint(self):
        from repro.baselines.exact import ExactEngine
        from repro.engine.pruning import SCAN, SKIP

        table = make_batch(200, 7, lo=0.0, hi=10.0)
        store, pipeline = ingest_store(table=table)
        engine = ExactEngine(store)
        query = AnalyticsQuery(
            "data",
            RangeSelection(("x0", "x1"), (500.0, 500.0), (600.0, 600.0)),
            Count(),
        )
        plan = engine.plan_for(query)
        assert plan.n_skipped == len(plan.actions)
        # Disjoint delta (values 0..10): SKIP is still provably safe.
        store.append_rows("data", make_batch(12, 8, lo=0.0, hi=10.0))
        assert engine.plan_for(query).n_skipped == len(plan.actions)
        # Overlapping delta: the skip must downgrade to a scan.
        store.append_rows("data", make_batch(12, 9, lo=550.0, hi=560.0))
        downgraded = engine.plan_for(query)
        assert SCAN in downgraded.actions
        value, _ = engine.execute(query)
        assert value == 12.0
        pipeline.flush()
        verify_store(store)

    def test_columnar_fast_path_disabled_while_dirty(self):
        from repro.common.accounting import CostMeter

        table = make_table(400)
        store, pipeline = ingest_store(layout="column", table=table)
        store.append_rows("data", make_batch(10, 3))
        dirty = [p for p in store.table("data").partitions if p.dirty]
        assert dirty
        with pytest.raises(StorageError):
            store.read_columns(dirty[0], ("x0",), CostMeter())
        pipeline.flush()
        assert store.read_columns(dirty[0], ("x0",), CostMeter()) is not None

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_shared_pass_matches_single_scans_on_dirty_store(self, layout):
        from repro.baselines.exact import ExactEngine

        table = make_table(600)
        store, _ = ingest_store(layout=layout, table=table)
        store.append_rows("data", make_batch(31, 13))
        store.delete_rows("data", lambda t: t.column("x1") > 90.0)
        queries = [
            AnalyticsQuery(
                "data",
                RangeSelection(("x0", "x1"), (0.0, 0.0), (hi, 80.0)),
                Sum("x0"),
            )
            for hi in (80.0, 40.0)
        ]
        engine = ExactEngine(store)
        singles = [engine.execute(query)[0] for query in queries]
        assert [answer for answer, _ in engine.execute_many(queries)] == singles
        assert singles == [engine.ground_truth(query) for query in queries]


# ---------------------------------------------------------------------------
# Crash consistency and recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_recovery_replays_synced_prefix_only(self):
        table = make_table(300)
        store, pipeline = ingest_store(table=table)
        reference = DistributedStore(ClusterTopology.single_datacenter(4))
        reference.put_table(table, partitions_per_node=2)

        durable = make_batch(20, 31)
        store.append_rows("data", durable)
        reference.append_rows("data", durable)
        pipeline.flush()  # synced + compacted: survives any crash
        volatile = make_batch(15, 32)
        store.append_rows("data", volatile)  # never synced: must be lost

        pipeline.crash()
        report = store.recover()
        assert report.synopses_ok and report.columnar_ok
        assert tables_equal(store_image(store), store_image(reference))
        verify_store(store)

    def test_crash_blocks_writes_until_recovered(self):
        store, pipeline = ingest_store(table=make_table(100))
        pipeline.crash()
        with pytest.raises(WriteError):
            store.append_rows("data", make_batch(5, 1))
        with pytest.raises(WriteError):
            pipeline.advance(1.0)
        store.recover()
        assert store.ingest.append("data", make_batch(5, 1)) > 0

    def test_recover_without_ingest_raises_recovery_error(self):
        store = DistributedStore(ClusterTopology.single_datacenter(2))
        with pytest.raises(RecoveryError):
            store.recover()

    def test_torn_wal_tail_is_discarded_on_recovery(self):
        store, pipeline = ingest_store(table=make_table(200))
        injector = FaultInjector(seed=5)
        store.attach_faults(injector)
        store.append_rows("data", make_batch(10, 41))
        pipeline.flush()
        durable_image = store_image(store)
        store.append_rows("data", make_batch(10, 42))
        torn = pipeline.crash()
        assert torn > 0  # the seeded cut wrote a partial frame
        report = store.recover()
        assert report.torn_bytes == torn
        assert tables_equal(store_image(store), durable_image)

    def test_corrupted_wal_record_truncates_replay(self):
        store, pipeline = ingest_store(
            table=make_table(200), epoch_seconds=100.0
        )
        store.ingest.append("data", make_batch(10, 1))
        pipeline.wal.sync()  # durable but not compacted
        store.ingest.append("data", make_batch(10, 2))
        pipeline.wal.sync()
        pipeline.crash()
        # Corrupt the second record's tail byte: CRC must reject it and
        # every record after the corruption point.
        pipeline.wal._disk[-1] ^= 0x01
        report = store.recover()
        assert report.torn_bytes > 0
        assert report.records_replayed == 1
        base = 200
        assert store.table("data").n_rows == base + 10
        verify_store(store)

    def test_empty_wal_recovery_restores_checkpoints(self):
        table = make_table(150)
        store, pipeline = ingest_store(table=table)
        image = store_image(store)
        pipeline.crash()
        report = store.recover()
        assert report.records_scanned == 0
        assert report.records_replayed == 0
        assert tables_equal(store_image(store), image)

    def test_crash_mid_compaction_leaves_recoverable_half_merge(self):
        table = make_table(400)
        store, pipeline = ingest_store(table=table)
        injector = FaultInjector(seed=11)
        store.attach_faults(injector)
        store.append_rows("data", make_batch(300, 51))  # fills three partitions

        # First partition compacts, then the process dies: the WAL is
        # synced, one partition is merged+checkpointed, the rest are not.
        injector.arm_write_crash("compaction", hits=2)
        with pytest.raises(WriteCrashError):
            pipeline.flush()
        assert pipeline.crashed

        report = store.recover()
        assert report.records_replayed >= 1
        # Everything logged before the epoch close was synced by it, so
        # the half-merged epoch recovers completely.
        reference = DistributedStore(ClusterTopology.single_datacenter(4))
        reference.put_table(table, partitions_per_node=2)
        reference.append_rows("data", make_batch(300, 51))
        assert tables_equal(store_image(store), store_image(reference))
        verify_store(store)
        # And the next epoch close finishes the merge cleanly.
        pipeline.flush()
        assert tables_equal(store_image(store), store_image(reference))

    def test_double_recover_is_idempotent(self):
        store, pipeline = ingest_store(table=make_table(250))
        store.append_rows("data", make_batch(20, 61))
        pipeline.flush()
        store.append_rows("data", make_batch(20, 62))
        pipeline.crash()
        first = store.recover()
        image = store_image(store)
        second = store.recover()
        assert tables_equal(store_image(store), image)
        assert second.durable_lsn == first.durable_lsn
        assert second.torn_bytes == 0

    def test_transient_sync_faults_retry_with_backoff(self):
        store, pipeline = ingest_store(table=make_table(100))
        injector = FaultInjector(seed=3)
        store.attach_faults(injector)
        store.append_rows("data", make_batch(10, 71))
        injector.inject_write_faults("wal_sync", count=2)
        clock_before = pipeline.clock
        pipeline.flush()
        assert pipeline.n_retries == 2
        assert pipeline.clock > clock_before  # backoff advanced the clock
        assert injector.n_write_faults == 2
        assert pipeline.pending_delta_rows == 0

    def test_retry_exhaustion_surfaces_write_error_and_preserves_deltas(self):
        store, pipeline = ingest_store(table=make_table(100))
        injector = FaultInjector(seed=3)
        store.attach_faults(injector)
        store.append_rows("data", make_batch(10, 72))
        injector.inject_write_faults(
            "wal_sync", count=pipeline.config.retry_limit + 5
        )
        with pytest.raises(WriteError):
            pipeline.flush()
        # Nothing lost: the staged writes survive for the next attempt.
        assert pipeline.pending_delta_rows == 10
        pipeline.flush()  # remaining armed faults fit the retry budget
        assert pipeline.pending_delta_rows == 0


# ---------------------------------------------------------------------------
# View maintenance: reads after an append extend the view in place
# ---------------------------------------------------------------------------
def bits(table: Table):
    """Column name -> raw bytes (tells NaN payloads and -0.0 apart)."""
    return {c: table.column(c).tobytes() for c in table.column_names}


def union_from_scratch(partition) -> Table:
    """The reference ``base[~deleted] ++ rows``, rebuilt with ``concat``."""
    delta = partition.delta
    base = partition.data
    if delta is None:
        return base
    if delta.deleted_base is not None:
        base = base.select(~delta.deleted_base)
    if delta.rows is None:
        return base
    return Table.concat([base, delta.rows])


class ViewMaintenanceMachine(RuleBasedStateMachine):
    """One ingest store under appends, deletes, epoch closes and crashes.

    After every step each partition's ``read_view()`` must equal the
    from-scratch union, and every view or checkpoint handed out earlier
    (each step's views are all kept, as a reader might) must still hold
    the values it held then — in-place growth may never reach rows
    somebody already has.
    """

    def __init__(self):
        super().__init__()
        table = make_table(90)
        # Clustered on x0, so every base image starts out sorted on it.
        table = table.take(np.argsort(table.column("x0"), kind="stable"))
        self.store, self.pipeline = ingest_store(n_nodes=2, table=table)
        self.partitions = self.store.table("data").partitions
        self.held = {}  # id(table) -> (table, its bytes when handed out)
        self.seed = 0
        self.top = float(table.column("x0").max())

    def hold(self, table):
        self.held.setdefault(id(table), (table, bits(table)))

    @rule(n=st.integers(1, 40))
    def append(self, n):
        """Rows in no order: a late row unsorts every view grown from here."""
        self.seed += 1
        self.store.append_rows("data", make_batch(n, self.seed))

    @rule(n=st.integers(1, 40))
    def append_in_arrival_order(self, n):
        """x0 keeps rising, so views sorted on it stay sorted."""
        self.seed += 1
        batch = make_batch(n, self.seed)
        x0 = self.top + np.cumsum(batch.column("x0"))
        self.top = max(self.top, float(x0[-1]))
        self.store.append_rows("data", batch.with_column("x0", x0))

    @rule(where=st.sampled_from(["base", "memtable", "both"]), k=st.integers(1, 4))
    def delete(self, where, k):
        def predicate(view):
            # read_view() hands the pipeline its cached object, so the
            # partition (and where its base rows end) can be looked up.
            partition = next(
                p for p in self.partitions if p.read_view() is view
            )
            live_base = partition.delta.live_base_rows
            mask = np.zeros(view.n_rows, dtype=bool)
            if where != "memtable":
                mask[: min(k, live_base)] = True
            if where != "base":
                mask[live_base : live_base + k] = True
            return mask

        self.store.delete_rows("data", predicate)

    @rule()
    def close_epoch(self):
        self.pipeline.flush()

    @rule()
    def crash_and_recover(self):
        self.pipeline.crash()
        self.store.recover()

    @invariant()
    def views_equal_the_from_scratch_union(self):
        for partition in self.partitions:
            want = union_from_scratch(partition)
            view = partition.read_view()
            assert bits(view) == bits(want)
            assert partition.read_view() is view
            delta = partition.delta
            tombstones = (
                0
                if delta.deleted_base is None
                else int(np.count_nonzero(delta.deleted_base))
            )
            assert delta.n_deleted == tombstones
            assert delta.dirty == (delta.n_rows > 0 or tombstones > 0)
            self.hold(view)

    @invariant()
    def handed_out_tables_never_change(self):
        for checkpoint in self.pipeline._checkpoints.values():
            self.hold(checkpoint.data)
        for table, was in self.held.values():
            assert bits(table) == was

    @invariant()
    def handed_out_tables_know_whether_they_are_sorted(self):
        """Inherited through appended / select / adoption or asked afresh,
        the answer is the brute-force one."""
        for table, _ in self.held.values():
            for name in table.column_names:
                assert table.is_sorted(name) == brute_sorted(table.column(name))


ViewMaintenanceMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestViewMaintenanceMachine = ViewMaintenanceMachine.TestCase


class TestViewMaintenance:
    N_ROWS = 40_000

    def _one_partition_store(self):
        store, pipeline = ingest_store(n_nodes=1, table=make_table(self.N_ROWS))
        store_table = store.table("data")
        # partitions_per_node=2 on one node: two partitions of N_ROWS / 2.
        return store, pipeline, store_table.partitions[0]

    def _append_and_read(self, store, partition, seed, n=8):
        """Peak bytes allocated by one append plus the first read after it."""
        tracemalloc.start()
        try:
            store.append_rows("data", make_batch(n, seed))
            view = partition.read_view()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return view, peak

    def test_first_read_after_append_costs_the_append(self):
        store, pipeline, partition = self._one_partition_store()
        column_bytes = partition.data.n_rows * 8
        # The loaded base has no spare capacity: the first dirty read
        # copies it, once, into a padded buffer.
        first, peak = self._append_and_read(store, partition, 1)
        assert peak > column_bytes
        assert not np.shares_memory(first.column("x0"), partition.data.column("x0"))
        for seed in range(2, 12):
            view, peak = self._append_and_read(store, partition, seed)
            assert np.shares_memory(view.column("x0"), first.column("x0"))
            assert peak < column_bytes / 4  # no partition-length array
            assert view.n_rows == first.n_rows + (seed - 1) * 8  # lands whole
            assert bits(view) == bits(union_from_scratch(partition))
            assert partition.read_view() is view

    def test_compaction_adopts_the_view_and_the_next_epoch_appends_into_it(self):
        store, pipeline, partition = self._one_partition_store()
        store.append_rows("data", make_batch(8, 1))
        first = partition.read_view()
        pipeline.flush()
        assert partition.data is first and not partition.dirty
        checkpoint = pipeline._checkpoints[("data", partition.index)].data
        was = bits(checkpoint)
        view, peak = self._append_and_read(store, partition, 2)
        assert np.shares_memory(view.column("x0"), partition.data.column("x0"))
        assert peak < partition.data.n_rows * 8 / 4
        assert bits(checkpoint) == was and checkpoint.n_rows == first.n_rows

    def test_a_delete_rebuilds_the_view(self):
        store, pipeline, partition = self._one_partition_store()
        store.append_rows("data", make_batch(8, 1))
        store.append_rows("data", make_batch(8, 2))
        before = partition.read_view()
        was = bits(before)
        low = float(partition.data.column("x0")[:50].min())
        store.delete_rows("data", lambda t: t.column("x0") == low)
        after = partition.read_view()
        assert after.n_rows < before.n_rows
        assert not np.shares_memory(after.column("x0"), before.column("x0"))
        assert bits(after) == bits(union_from_scratch(partition))
        assert bits(before) == was
        # ...and the rebuilt view is extended in place again.
        store.append_rows("data", make_batch(8, 3))
        assert np.shares_memory(
            partition.read_view().column("x0"), after.column("x0")
        )

    def test_recovered_base_is_never_written_past(self):
        store, pipeline, partition = self._one_partition_store()
        store.append_rows("data", make_batch(8, 1))
        partition.read_view()
        pipeline.flush()  # base + checkpoint now sit in a padded buffer
        store.append_rows("data", make_batch(8, 2))
        lost = partition.read_view()  # written past the checkpointed base
        was = bits(lost)
        pipeline.crash()
        store.recover()
        store.append_rows("data", make_batch(8, 3))
        view = partition.read_view()
        assert bits(lost) == was
        assert not np.shares_memory(view.column("x0"), lost.column("x0"))
        assert bits(view) == bits(union_from_scratch(partition))

    def test_reader_of_a_held_view_never_sees_its_sum_change(self):
        store, pipeline, partition = self._one_partition_store()
        store.append_rows("data", make_batch(8, 0))
        held = partition.read_view()
        columns = [held.column(c) for c in held.column_names]
        want = [float(col.sum()) for col in columns]
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append([float(col.sum()) for col in columns] == want)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for seed in range(1, 1001):
                store.append_rows("data", make_batch(2, seed))
                partition.read_view()
        finally:
            stop.set()
            thread.join()
        assert seen and all(seen)
        assert [float(col.sum()) for col in columns] == want
        assert partition.read_view().n_rows == held.n_rows + 2000


# ---------------------------------------------------------------------------
# Delta zone maps: kept while the memtable only grows, rebuilt when rows leave
# ---------------------------------------------------------------------------
ZONE_VALUES = [-np.inf, -3.0, -0.0, 0.0, 2.5, 7.0, np.inf, np.nan]


class DeltaZoneMachine(RuleBasedStateMachine):
    """One ``DeltaPartition`` under every mutation it has.

    Only the *watched* columns are asked about after a step, so the
    others fall behind and are caught up later over several appends.
    """

    COLUMNS = ("a", "b", "c")

    def __init__(self):
        super().__init__()
        self.delta = DeltaPartition(6)
        self.lsn = 0
        self.watched = ("a",)

    def stamp(self):
        self.lsn += 1
        return self.lsn

    @rule(
        rows=st.lists(
            st.tuples(*[st.sampled_from(ZONE_VALUES)] * 3), min_size=1, max_size=5
        )
    )
    def append(self, rows):
        columns = np.asarray(rows, dtype=float).T
        piece = Table(dict(zip(self.COLUMNS, columns)), name="z")
        self.delta.append(piece, self.stamp())

    def _delete(self, positions):
        mask = np.zeros(self.delta.live_base_rows + self.delta.n_rows, dtype=bool)
        mask[positions] = True
        self.delta.delete(mask, self.stamp())

    @rule(k=st.integers(0, 5))
    def delete_hitting_base_only(self, k):
        if self.delta.live_base_rows:
            self._delete([k % self.delta.live_base_rows])

    @rule(k=st.integers(0, 40), base_too=st.booleans())
    def delete_hitting_the_memtable(self, k, base_too):
        if self.delta.n_rows:
            live = self.delta.live_base_rows
            hit = [live + k % self.delta.n_rows]
            self._delete(hit + [0] if base_too and live else hit)

    @rule()
    def clear(self):
        self.delta.clear()

    @rule(n=st.integers(0, 9))
    def rebase(self, n):
        self.delta.rebase(n)

    @rule(columns=st.lists(st.sampled_from(COLUMNS), unique=True, max_size=3))
    def watch(self, columns):
        self.watched = tuple(columns)

    @invariant()
    def zone_is_the_fresh_min_max_and_disjoint_is_a_proof(self):
        rows = self.delta.rows
        zone = self.delta.synopsis()
        if rows is None:
            assert zone is None
            return
        assert zone is self.delta.synopsis() and zone.n_rows == rows.n_rows
        for name in self.watched:
            col = rows.column(name)
            assert np.array_equal(
                zone.zone(name), (col.min(), col.max()), equal_nan=True
            )
        if not self.watched:
            return
        # Every row sits in the box drawn tightly around itself...
        matrix = rows.matrix(self.watched)
        for row in matrix[~np.isnan(matrix).any(axis=1)]:
            assert not zone.disjoint(self.watched, row, row)
        # ...and any box gets the verdict fresh minima and maxima give
        # (PartitionSynopsis.disjoint's test, without the sums it would
        # also compute — inf + -inf warns).
        for lo in ZONE_VALUES:
            for hi in (lo, 7.0, np.inf):
                want = any(
                    rows.column(c).max() < lo or rows.column(c).min() > hi
                    for c in self.watched
                )
                bounds = [lo] * len(self.watched), [hi] * len(self.watched)
                assert zone.disjoint(self.watched, *bounds) == want


DeltaZoneMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDeltaZoneMachine = DeltaZoneMachine.TestCase


class TestFreshReadCost:
    """What planning and counting a dirty partition may compute."""

    def test_a_tail_read_folds_only_the_appended_rows(self, monkeypatch):
        from repro.baselines.exact import ExactEngine
        from repro.cluster.synopsis import PartitionSynopsis
        from repro.engine.pruning import SCAN, SKIP
        from repro.ingest import delta as delta_module

        store, pipeline = ingest_store(table=arrivals(0.0, 4_000, 1))
        engine = ExactEngine(store)
        n_parts = len(store.table("data").partitions)

        def tail(last):
            return AnalyticsQuery(
                "data",
                RangeSelection(
                    ("ts", "x0"), (last - 8.0 * n_parts, 10.0), (last, 90.0)
                ),
                Count(),
            )

        folded = []
        real = delta_module._extend_zone

        def counting(zone, col):
            folded.append(col.shape[0])
            return real(zone, col)

        def forbidden(cls, table):
            raise AssertionError("full statistics built while planning a read")

        monkeypatch.setattr(delta_module, "_extend_zone", counting)
        store.append_rows("data", arrivals(4_000.0, 8 * n_parts, 2))
        monkeypatch.setattr(
            PartitionSynopsis, "from_table", classmethod(forbidden)
        )
        plan = engine.plan_for(tail(4_000.0 + 8 * n_parts - 1))
        # The batch landed whole on the first partition, whose base lies
        # below the tail: only its fresh rows keep it in the plan, found by
        # one min/max over them for each column the selection names.  The
        # last base reaches the tail; every other partition is skipped.
        assert dirty_indices(store) == [0]
        assert plan.actions[0] == SCAN and plan.actions.count(SCAN) <= 2
        assert folded == [8 * n_parts] * 2
        del folded[:]
        engine.plan_for(tail(4_000.0 + 8 * n_parts - 1))
        assert folded == []  # a second read computes no statistic at all
        store.append_rows("data", arrivals(5_000.0, 3 * n_parts, 3))
        assert dirty_indices(store) == [0]
        beyond = AnalyticsQuery(
            "data", RangeSelection(("ts", "x0"), (6e3, 0.0), (7e3, 100.0)), Count()
        )
        assert engine.plan_for(beyond).actions.count(SKIP) == n_parts
        # ...and the next one only the rows appended since (ts proves the
        # memtable disjoint, so x0 is not looked at).
        assert folded == [3 * n_parts]
        monkeypatch.undo()
        value, _ = engine.execute(tail(5_000.0 + 3 * n_parts - 1))
        assert value == engine.ground_truth(tail(5_000.0 + 3 * n_parts - 1))

    def test_counting_a_dirty_partition_does_not_build_its_view(self):
        store, pipeline = ingest_store(table=make_table(400))
        partitions = store.table("data").partitions
        rng = np.random.default_rng(5)
        for step in range(12):
            if step % 3 == 2:
                cut = float(rng.uniform(20.0, 80.0))
                store.delete_rows(
                    "data", lambda t, cut=cut: np.abs(t.column("x0") - cut) < 2.0
                )
            else:
                store.append_rows("data", make_batch(int(rng.integers(1, 30)), step))
            if step % 4 == 3:
                pipeline.flush()
            for partition in partitions:
                was = partition._view
                counted = (partition.n_rows, partition.n_bytes, partition.row_bytes)
                assert partition._view is was  # asking built nothing
                view = partition.read_view()
                assert counted == (view.n_rows, view.n_bytes, view.row_bytes)
        assert store.table("data").n_rows == store.table("data").full_table().n_rows


# ---------------------------------------------------------------------------
# Session facade + per-epoch maintenance
# ---------------------------------------------------------------------------
class TestSessionIngest:
    def test_session_requires_opt_in(self):
        session = SEASession(n_nodes=2)
        assert session.ingest is None
        with pytest.raises(ConfigurationError):
            session.append_rows("data", make_batch(1, 1))
        with pytest.raises(ConfigurationError):
            session.flush()

    def test_append_advance_flush_roundtrip(self):
        session = SEASession(n_nodes=4, ingest=True, epoch_seconds=0.5)
        session.load_table(make_table(300))
        lsn = session.append_rows("data", make_batch(40, 81))
        assert lsn > 0
        answer = session.sql(
            "SELECT COUNT(*) FROM data "
            "WHERE x0 BETWEEN -1e9 AND 1e9 AND x1 BETWEEN -1e9 AND 1e9"
        )
        assert answer.value == 340.0
        assert session.staleness_bound == 0.5
        session.advance(1.0)
        assert session.ingest.pending_delta_rows == 0
        deleted = session.delete_rows("data", lambda t: t.column("x0") > 1e8)
        assert deleted == 0
        session.flush()

    def test_epoch_close_invalidates_overlapping_quanta(self):
        session = SEASession(n_nodes=4, ingest=True, epoch_seconds=1.0)
        session.load_table(make_table(2000, seed=5))
        invalidations = []
        original = session.agent.notify_data_update
        session.agent.notify_data_update = lambda *a, **k: (
            invalidations.append(a) or original(*a, **k)
        )
        session.append_rows("data", make_batch(10, 91, lo=40.0, hi=50.0))
        assert invalidations == []  # staged, not yet epoch-closed
        session.flush()
        assert len(invalidations) == 1
        name, lows, highs = invalidations[0]
        assert name == "data"
        # x0/x1 dims carry the write range; the value dim is [0, 1].
        assert len(lows) == 3 and len(highs) == 3
        assert all(40.0 <= v <= 50.0 for v in (lows[0], lows[1], highs[0], highs[1]))

    def test_profile_reports_delta_rows(self):
        session = SEASession(n_nodes=2, ingest=True)
        session.attach_observer()
        session.load_table(make_table(200))
        session.append_rows("data", make_batch(12, 95))
        answer = session.sql(
            "SELECT COUNT(*) FROM data "
            "WHERE x0 BETWEEN -1e9 AND 1e9 AND x1 BETWEEN -1e9 AND 1e9"
        )
        profile = answer.profile
        assert sum(p.delta_rows for p in profile.partitions) == 12
        rendered = profile.render()
        assert "delta=" in rendered
        session.flush()
        answer2 = session.sql(
            "SELECT COUNT(*) FROM data "
            "WHERE x0 BETWEEN -1e9 AND 1e9 AND x1 BETWEEN -1e9 AND 1e9"
        )
        assert sum(p.delta_rows for p in answer2.profile.partitions) == 0

    def test_session_crash_recover_roundtrip(self):
        session = SEASession(n_nodes=4, ingest=True)
        session.load_table(make_table(300))
        session.append_rows("data", make_batch(25, 97))
        session.flush()
        session.append_rows("data", make_batch(99, 98))
        session.ingest.crash()
        report = session.recover()
        assert report.synopses_ok and report.columnar_ok
        answer = session.sql(
            "SELECT COUNT(*) FROM data "
            "WHERE x0 BETWEEN -1e9 AND 1e9 AND x1 BETWEEN -1e9 AND 1e9"
        )
        assert answer.value == 325.0


class TestSqlManyOverDirtyDeltas:
    def _build(self):
        """Two identically-prepared ingest sessions with dirty deltas."""
        from repro.core import AgentConfig

        sessions = []
        for _ in range(2):
            session = SEASession(
                n_nodes=4,
                ingest=True,
                epoch_seconds=100.0,  # nothing compacts during the test
                config=AgentConfig(training_budget=6, error_threshold=0.3),
            )
            session.load_table(make_table(1500, seed=9))
            session.append_rows("data", make_batch(60, 21, lo=10.0, hi=60.0))
            session.delete_rows("data", lambda t: t.column("x0") > 85.0)
            session.append_rows("data", make_batch(40, 22, lo=30.0, hi=90.0))
            assert session.ingest.pending_delta_rows > 0
            sessions.append(session)
        return sessions

    def _statements(self):
        rng = np.random.default_rng(31)
        statements = []
        for _ in range(14):
            x0 = sorted(rng.uniform(0.0, 100.0, 2))
            x1 = sorted(rng.uniform(0.0, 100.0, 2))
            statements.append(
                f"SELECT COUNT(*) FROM data "
                f"WHERE x0 BETWEEN {x0[0]:.4f} AND {x0[1]:.4f} "
                f"AND x1 BETWEEN {x1[0]:.4f} AND {x1[1]:.4f}"
            )
        return statements

    def test_batch_path_matches_sequential_byte_for_byte(self):
        # The batch serving path must read the same base+delta images as
        # per-statement serving: identical values, modes and cost
        # reports while every partition still carries staged writes.
        batch_session, seq_session = self._build()
        statements = self._statements()
        batched = batch_session.sql_many(statements)
        sequential = [seq_session.sql(s) for s in statements]
        for b, s in zip(batched, sequential):
            assert b.mode == s.mode
            assert np.array_equal(np.asarray(b.value), np.asarray(s.value))
            assert b.cost.__dict__ == s.cost.__dict__
        # Mixed modes prove the comparison covered the learned paths,
        # not just exact scans.
        assert len({a.mode for a in batched}) >= 2
        # Both sessions still have uncompacted deltas afterwards.
        assert batch_session.ingest.pending_delta_rows > 0
        assert seq_session.ingest.pending_delta_rows > 0
        batch_session.close()
        seq_session.close()
