"""Columnar partition storage: encodings, encoded scans, byte identity.

The contract under test (DESIGN §11):

1. **Round-trip identity** — every encoding decodes to the ingested
   column bit for bit (NaN payloads and signed zeros included), and the
   chooser never picks an encoding larger than raw.
2. **Encoded-predicate equivalence** — range masks evaluated on the
   encoded domain equal ``RangeSelection.mask`` on the decoded rows.
3. **Answer byte identity** — a columnar store answers every query
   bitwise identically to a row-major store over the same logical
   table, under pruning plans and fault schedules.
4. **Cost truthfulness** — the meter charges the encoded bytes a
   columnar scan actually reads, and profiles reconcile with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactEngine
from repro.cluster import (
    BIT_PACKED,
    DICTIONARY,
    LAYOUT_COLUMN,
    LAYOUT_ROW,
    RAW,
    RUN_LENGTH,
    ClusterTopology,
    ColumnarPartition,
    DistributedStore,
    columnar_consistent,
    encode_column,
)
from repro.common import CostMeter
from repro.common.errors import ConfigurationError, PartitionLostError, StorageError
from repro.data import Table
from repro.engine.colscan import (
    ColumnScan,
    columnar_partial,
    encoded_batch_masks,
    encoded_mask,
    scan_columns,
)
from repro.faults import FaultInjector, FaultSchedule
from repro.obs import StackObserver
from repro.queries import (
    AnalyticsQuery,
    Correlation,
    Count,
    Max,
    Mean,
    Median,
    Min,
    RangeSelection,
    Std,
    Sum,
)


def roundtrip(values, value_bytes=8):
    enc = encode_column(np.asarray(values), value_bytes)
    decoded = enc.decode()
    assert decoded.dtype == np.asarray(values).dtype
    assert decoded.shape == np.asarray(values).shape
    assert decoded.tobytes() == np.asarray(values).tobytes()
    return enc


def make_table(n, seed=0, nan_fraction=0.0):
    """A mixed-encoding table: dictionary, RLE, bitpack and raw columns."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 6, n).astype(float)
    ts = np.repeat(
        np.arange(max(1, n // 16), dtype=float), 16
    )[:n]
    if ts.shape[0] < n:
        ts = np.concatenate([ts, np.full(n - ts.shape[0], ts[-1] if ts.size else 0.0)])
    small_int = rng.integers(-3, 12, n)
    x = rng.normal(size=n)
    if nan_fraction > 0 and n > 0:
        x[rng.random(n) < nan_fraction] = np.nan
    return Table(
        {"cat": cat, "ts": ts, "small": small_int, "x": x},
        name="t",
    )


# ---------------------------------------------------------------------------
# Encoder round trips
# ---------------------------------------------------------------------------


class TestEncoderRoundTrip:
    def test_empty_column_is_raw(self):
        enc = roundtrip(np.empty(0, dtype=float))
        assert enc.kind == RAW
        assert enc.encoded_bytes == 0

    def test_single_row_is_raw(self):
        enc = roundtrip(np.array([3.5]))
        assert enc.kind == RAW

    def test_constant_column_run_length(self):
        enc = roundtrip(np.full(500, 7.25))
        assert enc.kind == RUN_LENGTH
        assert enc.encoded_bytes == 16  # one (value, length) pair

    def test_sorted_column_run_length(self):
        enc = roundtrip(np.repeat(np.arange(10, dtype=float), 100))
        assert enc.kind == RUN_LENGTH

    def test_low_cardinality_dictionary(self):
        rng = np.random.default_rng(1)
        enc = roundtrip(rng.integers(0, 5, 2000).astype(float))
        assert enc.kind == DICTIONARY
        # 5 dictionary values + one uint8 code per row.
        assert enc.encoded_bytes == 5 * 8 + 2000

    def test_small_domain_int_bitpack(self):
        rng = np.random.default_rng(2)
        values = rng.permutation(np.arange(2000)) % 1000 - 500
        enc = roundtrip(values)
        assert enc.kind == BIT_PACKED
        assert enc.encoded_bytes < values.nbytes

    def test_nan_bearing_column_roundtrips_bitwise(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=300)
        values[::7] = np.nan
        roundtrip(values)
        # Constant-NaN column: runs must merge on bit pattern, not value.
        enc = roundtrip(np.full(100, np.nan))
        assert enc.kind == RUN_LENGTH

    def test_signed_zero_preserved(self):
        values = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0] * 50)
        enc = roundtrip(values)
        # -0.0 and 0.0 are distinct bit patterns: dictionary keeps both.
        assert enc.kind == DICTIONARY
        decoded = enc.decode()
        assert np.signbit(decoded[1]) and not np.signbit(decoded[0])

    def test_high_cardinality_stays_raw(self):
        rng = np.random.default_rng(4)
        enc = roundtrip(rng.normal(size=4000))
        assert enc.kind == RAW

    def test_encoding_never_exceeds_raw(self):
        rng = np.random.default_rng(5)
        for values in (
            rng.normal(size=777),
            rng.integers(0, 2, 777).astype(float),
            np.sort(rng.integers(0, 40, 777)).astype(float),
            rng.integers(-(2**40), 2**40, 777),
        ):
            enc = encode_column(values, 8)
            assert enc.encoded_bytes <= values.shape[0] * 8

    def test_value_bytes_scales_value_storage(self):
        values = np.full(100, 1.0)
        thin = encode_column(values, 8)
        wide = encode_column(values, 64)
        assert thin.kind == wide.kind == RUN_LENGTH
        assert wide.encoded_bytes == 64 + 8  # one wide value + one length

    def test_masked_take_and_range_mask_match_decode(self):
        rng = np.random.default_rng(6)
        columns = {
            RAW: rng.normal(size=400),
            DICTIONARY: rng.integers(0, 4, 400).astype(float),
            RUN_LENGTH: np.sort(rng.integers(0, 9, 400)).astype(float),
            BIT_PACKED: rng.permutation(np.arange(400)) % 50,
        }
        mask = rng.random(400) < 0.3
        idx = rng.integers(0, 400, 60)
        for kind, values in columns.items():
            enc = encode_column(values, 8)
            assert enc.kind == kind
            decoded = enc.decode()
            assert enc.masked(mask).tobytes() == decoded[mask].tobytes()
            assert enc.take(idx).tobytes() == decoded[idx].tobytes()
            lo, hi = np.quantile(values.astype(float), [0.2, 0.7])
            expect = (decoded >= lo) & (decoded <= hi)
            assert np.array_equal(enc.range_mask(lo, hi), expect)
            lows = np.array([lo, hi])
            highs = np.array([hi, hi + 1.0])
            batch = enc.batch_range_masks(lows, highs)
            for row, (blo, bhi) in zip(batch, zip(lows, highs)):
                assert np.array_equal(row, (decoded >= blo) & (decoded <= bhi))

    def test_columnar_partition_project_and_masked_table(self):
        table = make_table(600, seed=7)
        part = ColumnarPartition.from_table(table)
        assert part.column_names == table.column_names
        assert part.to_table().column("x").tobytes() == table.column("x").tobytes()
        proj = part.project(("x", "cat"))
        assert proj.column_names == ["x", "cat"]
        assert proj.encoded_bytes == part.column_bytes(("x", "cat"))
        mask = table.column("cat") <= 2.0
        mini = part.masked_table(mask, ("x",))
        assert mini.column("x").tobytes() == table.column("x")[mask].tobytes()
        took = part.take([5, 1, 599])
        assert took.column("small").tolist() == table.column("small")[[5, 1, 599]].tolist()

    def test_columnar_consistent_detects_drift(self):
        table = make_table(300, seed=8)
        part = ColumnarPartition.from_table(table)
        assert columnar_consistent([part], [table])
        other = make_table(300, seed=9)
        assert not columnar_consistent([part], [other])
        assert not columnar_consistent([None], [table])


# ---------------------------------------------------------------------------
# Encoded predicates + late materialization
# ---------------------------------------------------------------------------


class TestEncodedScan:
    def test_encoded_mask_matches_row_mask(self):
        table = make_table(800, seed=10, nan_fraction=0.05)
        part = ColumnarPartition.from_table(table)
        sel = RangeSelection(("cat", "x"), (1.0, -0.5), (4.0, 0.5))
        assert np.array_equal(encoded_mask(part, sel), sel.mask(table))

    def test_encoded_batch_masks_match(self):
        table = make_table(500, seed=11)
        part = ColumnarPartition.from_table(table)
        sels = [
            RangeSelection(("cat",), (float(k),), (float(k) + 1.0,))
            for k in range(4)
        ]
        batch = encoded_batch_masks(sels, part)
        for sel, mask in zip(sels, batch):
            assert np.array_equal(mask, sel.mask(table))

    def test_scan_columns_dedupes_and_gates(self):
        sel = RangeSelection(("a", "b"), (0.0, 0.0), (1.0, 1.0))
        scan = scan_columns(sel, Sum("a"))
        assert scan == ColumnScan(("a", "b"))
        assert scan_columns(sel, Count()) == ColumnScan(("a", "b"))
        assert scan_columns(sel, Correlation("b", "c")) == ColumnScan(("a", "b", "c"))

    def test_columnar_partial_matches_row_partial(self):
        table = make_table(700, seed=12)
        part = ColumnarPartition.from_table(table)
        sel = RangeSelection(("cat",), (0.0,), (2.0,))
        mask = sel.mask(table)
        for agg in (Count(), Sum("x"), Mean("x"), Std("x"), Min("x"),
                    Max("x"), Median("x"), Correlation("x", "cat")):
            expect = agg.partial_from_mask(table, mask)
            got = columnar_partial(part, sel, agg)
            assert repr(got) == repr(expect)


# ---------------------------------------------------------------------------
# Store integration: layout knob, accounting, maintenance
# ---------------------------------------------------------------------------


def build_stores(n=2000, seed=0, replication=1, parts=2, nan_fraction=0.0):
    table = make_table(n, seed=seed, nan_fraction=nan_fraction)
    row_store = DistributedStore(
        ClusterTopology.single_datacenter(4),
        replication=replication,
        layout=LAYOUT_ROW,
    )
    row_store.put_table(table, partitions_per_node=parts)
    col_store = DistributedStore(
        ClusterTopology.single_datacenter(4),
        replication=replication,
        layout=LAYOUT_COLUMN,
    )
    col_store.put_table(table, partitions_per_node=parts)
    return row_store, col_store, table


class TestStoreIntegration:
    def test_layout_knob_validated(self):
        topo = ClusterTopology.single_datacenter(2)
        with pytest.raises(ConfigurationError):
            DistributedStore(topo, layout="diagonal")

    def test_per_put_layout_override(self):
        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)  # default row
        table = make_table(400)
        stored = store.put_table(table, layout=LAYOUT_COLUMN)
        assert stored.columnar
        assert all(p.columnar is not None for p in stored.partitions)

    def test_node_accounting_uses_encoded_bytes(self):
        _, col_store, _ = build_stores()
        stored = col_store.table("t")
        assert stored.stored_bytes < sum(p.n_bytes for p in stored.partitions)
        total_on_nodes = sum(
            node.stored_bytes for node in col_store.topology.nodes
        )
        # replication=1: node accounting equals the encoded footprint.
        assert total_on_nodes == stored.stored_bytes
        col_store.drop_table("t")
        assert sum(n.stored_bytes for n in col_store.topology.nodes) == 0

    def test_read_columns_charges_projected_encoded_bytes(self):
        _, col_store, _ = build_stores()
        stored = col_store.table("t")
        partition = stored.partitions[0]
        meter = CostMeter()
        projected = col_store.read_columns(partition, ("x", "cat"), meter)
        assert meter.freeze().bytes_scanned == projected.encoded_bytes
        assert projected.encoded_bytes == partition.columnar.column_bytes(("x", "cat"))
        assert projected.encoded_bytes < partition.stored_bytes

    def test_read_columns_requires_columnar_layout(self):
        row_store, _, _ = build_stores()
        partition = row_store.table("t").partitions[0]
        with pytest.raises(StorageError):
            row_store.read_columns(partition, ("x",), CostMeter())

    def test_read_partition_charges_encoded_footprint(self):
        _, col_store, _ = build_stores()
        partition = col_store.table("t").partitions[0]
        meter = CostMeter()
        col_store.read_partition(partition, meter)
        assert meter.freeze().bytes_scanned == partition.stored_bytes

    def test_synopsis_records_encodings(self):
        row_store, col_store, _ = build_stores()
        for synopsis, partition in zip(
            col_store.synopses("t"), col_store.table("t").partitions
        ):
            assert synopsis.encodings == partition.columnar.encodings
        assert all(s.encodings is None for s in row_store.synopses("t"))

    def test_maintenance_reencodes_and_stays_consistent(self):
        _, col_store, table = build_stores(n=1200, seed=3)
        stored = col_store.table("t")
        before = stored.stored_bytes
        col_store.append_rows("t", make_table(300, seed=4))
        deleted = col_store.delete_rows("t", lambda t: t.column("cat") < 1.0)
        assert deleted > 0
        assert columnar_consistent(
            [p.columnar for p in stored.partitions],
            [p.data for p in stored.partitions],
        )
        for synopsis, partition in zip(
            col_store.synopses("t"), stored.partitions
        ):
            assert synopsis.encodings == partition.columnar.encodings
        # Node accounting tracked the re-encodes: totals match the new image.
        assert sum(
            n.stored_bytes for n in col_store.topology.nodes
        ) == stored.stored_bytes
        assert stored.stored_bytes != before


# ---------------------------------------------------------------------------
# Read-only partitions (engines never mutate base data)
# ---------------------------------------------------------------------------


class TestReadOnlyPartitions:
    def test_table_columns_are_read_only_views(self):
        table = make_table(50)
        col = table.column("x")
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 99.0

    def test_callers_original_buffer_stays_writable(self):
        values = np.arange(10.0)
        Table({"v": values})
        values[0] = -1.0  # the caller's own array is untouched by the view
        assert values[0] == -1.0

    def test_engines_never_mutate_partition_data(self):
        row_store, col_store, _ = build_stores(n=1500, seed=5)
        for store in (row_store, col_store):
            stored = store.table("t")
            images = [
                {
                    name: partition.data.column(name).tobytes()
                    for name in partition.data.column_names
                }
                for partition in stored.partitions
            ]
            engine = ExactEngine(store)
            queries = [
                AnalyticsQuery(
                    "t",
                    RangeSelection(("cat",), (0.0,), (float(k),)),
                    agg,
                )
                for k in range(3)
                for agg in (Sum("x"), Mean("x"), Count())
            ]
            for query in queries:
                engine.execute(query)
            engine.execute_many(queries)
            for partition, image in zip(stored.partitions, images):
                for name, payload in image.items():
                    assert partition.data.column(name).tobytes() == payload


# ---------------------------------------------------------------------------
# Row vs columnar byte identity (engines, profiles, faults)
# ---------------------------------------------------------------------------


def parity_queries():
    out = []
    for k in range(5):
        sel = RangeSelection(("cat",), (0.0,), (float(k),))
        out.append(AnalyticsQuery("t", sel, Sum("x")))
        out.append(AnalyticsQuery("t", sel, Count()))
    sel2 = RangeSelection(("cat", "x"), (1.0, -1.0), (3.0, 1.0))
    for agg in (Mean("x"), Std("x"), Min("x"), Max("x"), Median("x"),
                Correlation("x", "ts")):
        out.append(AnalyticsQuery("t", sel2, agg))
    return out


class TestRowColumnParity:
    def test_execute_byte_identical_and_cheaper(self):
        row_store, col_store, _ = build_stores(n=3000, seed=6)
        row_engine = ExactEngine(row_store)
        col_engine = ExactEngine(col_store)
        saw_cheaper = False
        for query in parity_queries():
            row_answer, row_report = row_engine.execute(query)
            col_answer, col_report = col_engine.execute(query)
            assert repr(row_answer) == repr(col_answer)
            assert col_report.bytes_scanned <= row_report.bytes_scanned
            if col_report.bytes_scanned < row_report.bytes_scanned:
                saw_cheaper = True
        assert saw_cheaper

    def test_execute_many_matches_execute(self):
        _, col_store, _ = build_stores(n=2500, seed=7)
        engine = ExactEngine(col_store)
        queries = parity_queries()
        batched = engine.execute_many(queries)
        for query, (answer, report) in zip(queries, batched):
            solo_answer, solo_report = engine.execute(query)
            assert repr(answer) == repr(solo_answer)
            assert report.as_dict() == solo_report.as_dict()

    def test_profile_reconciles_with_meter(self):
        _, col_store, _ = build_stores(n=2000, seed=8)
        observer = StackObserver()
        engine = ExactEngine(col_store, observer=observer)
        query = AnalyticsQuery(
            "t", RangeSelection(("cat",), (0.0,), (1.0,)), Sum("x")
        )
        observer.profile_begin(query)
        engine.execute(query)
        profile = observer.profile_end(query)
        scanned = [p for p in profile.partitions if p.action == "scan"]
        assert scanned
        for p in scanned:
            assert p.read_bytes < p.n_bytes  # column pruning + encoding
            assert p.stored_bytes < p.n_bytes
            assert p.bytes_saved == p.n_bytes - p.read_bytes
        assert profile.bytes_scanned == sum(p.read_bytes for p in scanned)

    def test_failover_parity_under_crash(self):
        row_store, col_store, _ = build_stores(n=1600, seed=10, replication=2)
        query = AnalyticsQuery(
            "t", RangeSelection(("cat",), (0.0,), (2.0,)), Sum("x")
        )
        answers = []
        for store in (row_store, col_store):
            schedule = FaultSchedule()
            schedule.crash(store.topology.node_ids[0])
            store.attach_faults(FaultInjector(schedule, seed=11))
            answer, report = ExactEngine(store).execute(query)
            answers.append(answer)
            store.clear_faults()
        assert repr(answers[0]) == repr(answers[1])


table_seeds = st.integers(0, 10_000)


class TestHypothesisByteIdentity:
    @given(
        seed=table_seeds,
        n=st.integers(64, 600),
        nan_fraction=st.sampled_from([0.0, 0.05]),
        crash=st.booleans(),
        lo=st.integers(0, 3),
        span=st.integers(0, 3),
        agg_index=st.integers(0, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_row_vs_columnar_identity(
        self, seed, n, nan_fraction, crash, lo, span, agg_index
    ):
        """Random tables × encodings × plans × faults."""
        row_store, col_store, _ = build_stores(
            n=n, seed=seed, replication=2, nan_fraction=nan_fraction
        )
        aggregate = [Count(), Sum("x"), Mean("x"), Min("small"), Std("x")][
            agg_index
        ]
        query = AnalyticsQuery(
            "t",
            RangeSelection(("cat",), (float(lo),), (float(lo + span),)),
            aggregate,
        )
        outcomes = []
        for store in (row_store, col_store):
            if crash:
                schedule = FaultSchedule()
                schedule.crash(store.topology.node_ids[seed % 4])
                store.attach_faults(FaultInjector(schedule, seed=seed))
            engine = ExactEngine(store)
            try:
                answer, _ = engine.execute(query)
                outcomes.append(repr(answer))
            except PartitionLostError:
                outcomes.append("lost")
            finally:
                store.clear_faults()
        assert len(set(outcomes)) == 1
        stored = col_store.table("t")
        assert columnar_consistent(
            [p.columnar for p in stored.partitions],
            [p.data for p in stored.partitions],
        )
