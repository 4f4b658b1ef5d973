"""A range over a raw column is answered from its sorted index (DESIGN §11).

A raw float64 column builds, on the first range conjunct that has to
compare it, an ``argsort`` permutation plus every ``FENCE_STRIDE``-th
sorted value.  The single-query columnar kernel then drives a partition
from the rows the most selective such conjunct keeps.  Both must select
exactly the rows ``RawColumn.range_mask`` / ``RangeSelection.mask``
select — the plain comparison stays the reference here — and every
partial built from them must carry the row path's bits.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactEngine
from repro.cluster import (
    LAYOUT_COLUMN,
    LAYOUT_ROW,
    RAW,
    ClusterTopology,
    ColumnarPartition,
    DistributedStore,
)
from repro.cluster.columnar import FENCE_STRIDE, RawColumn
from repro.cluster.synopsis import zone_within
from repro.data.tabular import Table
from repro.engine import colscan
from repro.engine.colscan import ROWS_MAX_SHARE, encoded_mask, selected_rows
from repro.engine.specs import QueryPartialSpec
from repro.ingest import IngestConfig
from repro.queries import (
    AnalyticsQuery,
    Correlation,
    Count,
    Max,
    Mean,
    Median,
    Min,
    Quantile,
    RangeSelection,
    RegressionCoefficients,
    Std,
    Sum,
    Variance,
)

#: The 11 aggregates colscan pushes down.
AGGREGATES = [
    Count(),
    Sum("v"),
    Mean("v"),
    Std("v"),
    Variance("w"),
    Min("v"),
    Max("w"),
    Median("v"),
    Quantile("w", 0.3),
    Correlation("v", "w"),
    RegressionCoefficients("v", ["w"]),
]


def test_every_pushdown_aggregate_is_covered():
    assert all(colscan.aggregate_columns(a) is not None for a in AGGREGATES)
    assert len({type(a) for a in AGGREGATES}) == 11


def as_bytes(partial) -> bytes:
    """A partial's exact bits (floats, ints, arrays, tuples of them)."""
    if isinstance(partial, tuple):
        return b"|".join(as_bytes(p) for p in partial)
    return np.asarray(partial).tobytes()


def index_rows(column: RawColumn, lo: float, hi: float) -> np.ndarray:
    index = column.sorted_index()
    start, stop = index.span(lo, hi)
    return np.sort(index.order[start:stop])


# ---------------------------------------------------------------------------
# The index alone
# ---------------------------------------------------------------------------
#: Few distinct keys, so every fence key has ties straddling it.
KEYS = [-np.inf, -2.5, -0.0, 0.0, 1.0, 3.0, np.nan, np.inf]
SIZES = [1, 63, 64, 65, 65_536, 65_537]
bounds = st.one_of(
    st.sampled_from(KEYS + [-1e300, 0.5, 7.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def columns(draw):
    n = draw(st.sampled_from(SIZES))
    pool = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.choice(np.asarray(pool, dtype=float), n)
    if draw(st.booleans()):  # and some distinct values between the ties
        noise = rng.random(n) < 0.3
        values[noise] = rng.normal(0.0, 2.0, int(noise.sum()))
    return values


class TestSortedIndex:
    @given(columns(), bounds, bounds)
    @settings(max_examples=120, deadline=None)
    def test_row_set_equals_range_mask(self, values, lo, hi):
        column = RawColumn(values, 8)
        want = np.flatnonzero(column.range_mask(lo, hi))
        got = index_rows(column, lo, hi)
        assert np.array_equal(got, want)
        # ...the swapped (inverted) bounds too, and bounds outside the zone.
        assert np.array_equal(
            index_rows(column, hi, lo), np.flatnonzero(column.range_mask(hi, lo))
        )
        assert index_rows(column, 1e308, np.inf).shape[0] == int(
            np.count_nonzero(values == np.inf)
        )

    def test_permutation_width_switches_above_65536_rows(self):
        for n, dtype in [(1, np.uint16), (65_536, np.uint16), (65_537, np.int32)]:
            index = RawColumn(np.arange(float(n))[::-1].copy(), 8).sorted_index()
            assert index.order.dtype == dtype
            assert index.fences.shape[0] == -(-n // FENCE_STRIDE)
            assert np.array_equal(np.sort(index.order), np.arange(n))

    def test_ties_straddling_a_fence_key(self):
        # Sorted positions 40..99 all hold 1.0, around the fence at 64.
        values = np.concatenate(
            [np.full(40, 0.5), np.full(60, 1.0), np.full(30, 2.0)]
        )
        np.random.default_rng(0).shuffle(values)
        column = RawColumn(values, 8)
        for lo, hi, want in [(1.0, 1.0, 60), (0.5, 1.0, 100), (1.0, 2.0, 90),
                             (np.nextafter(1.0, 2.0), 2.0, 30)]:
            assert index_rows(column, lo, hi).shape[0] == want

    def test_signed_zeros_nan_and_infinities(self):
        values = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 0.0, np.nan, 1.0])
        column = RawColumn(values, 8)
        for lo, hi in [(0.0, 0.0), (-0.0, -0.0), (-np.inf, np.inf),
                       (np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan),
                       (1.0, 0.0), (-np.inf, -np.inf)]:
            want = np.flatnonzero(column.range_mask(lo, hi))
            assert np.array_equal(index_rows(column, lo, hi), want)

    def test_built_once_and_only_for_float64(self):
        column = RawColumn(np.random.default_rng(1).normal(size=200), 8)
        assert column._index is None
        first = column.sorted_index()
        assert column.sorted_index() is first
        assert not RawColumn(np.arange(10), 8).indexable
        assert not RawColumn(np.arange(10, dtype=np.float32), 8).indexable

    def test_the_index_is_neither_stored_nor_charged(self):
        table = mixed_table(4_000, seed=2)
        part = ColumnarPartition.from_table(table)
        before = (part.encoded_bytes, part.column("x").encoded_bytes)
        part.column("x").sorted_index()
        assert (part.encoded_bytes, part.column("x").encoded_bytes) == before


# ---------------------------------------------------------------------------
# The kernel: selected rows and partials against the row path
# ---------------------------------------------------------------------------
def mixed_table(n, seed=0, nan_fraction=0.0):
    """ts (run-length), cat (dictionary), x (raw), v and w (raw)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, n)
    x[rng.random(n) < 0.05] = 0.0
    x[rng.random(n) < 0.05] = -0.0
    if nan_fraction:
        x[rng.random(n) < nan_fraction] = np.nan
    return Table(
        {
            "ts": np.repeat(np.arange(-(-n // 50), dtype=float), 50)[:n],
            "cat": rng.integers(0, 20, n).astype(float),
            "x": x,
            "v": rng.normal(5.0, 3.0, n),
            "w": rng.uniform(-1.0, 1.0, n),
        },
        name="t",
    )


def selections():
    """Narrow, empty, above the cut-off, multi-conjunct, zone-covered."""
    return [
        RangeSelection(["x"], [-1.0], [2.0]),
        RangeSelection(["x"], [0.0], [0.0]),
        RangeSelection(["x"], [40.0], [50.0]),  # empty
        RangeSelection(["x"], [-4.0], [30.0]),  # ~2/3 of rows: mask path
        RangeSelection(["x", "cat"], [-2.0, 2.5], [1.0, 9.5]),
        RangeSelection(["cat", "x", "ts"], [4.5, -2.0, 10.0], [15.5, 1.0, 30.0]),
        RangeSelection(["x", "x"], [-2.0, -0.5], [0.5, 2.0]),
        RangeSelection(["ts", "x"], [-1.0, -0.5], [1e9, 0.5]),  # ts proven
        RangeSelection(["cat"], [3.0], [4.0]),  # no raw conjunct
        RangeSelection(["x", "v"], [-8.0, 4.0], [8.0, 5.0]),  # v drives
    ]


class TestSelectedRows:
    def test_equal_the_encoded_mask_positions(self):
        part = ColumnarPartition.from_table(
            mixed_table(5_000, seed=3, nan_fraction=0.02)
        )
        driven = 0
        for selection in selections():
            conjuncts = colscan.range_conjuncts(selection)
            rows = selected_rows(part, conjuncts)
            can_drive = any(
                part.column(name).kind == RAW
                and not zone_within(*part.column(name).zone(), lo, hi)
                and np.count_nonzero(part.column(name).range_mask(lo, hi))
                <= part.n_rows * ROWS_MAX_SHARE
                for name, lo, hi in conjuncts
            )
            assert (rows is not None) == can_drive, selection
            if rows is not None:
                driven += 1
                assert rows.dtype == np.intp
                assert np.array_equal(
                    rows, np.flatnonzero(encoded_mask(part, selection))
                )
        assert driven >= 6

    def test_above_the_cut_off_the_mask_path_runs(self):
        part = ColumnarPartition.from_table(mixed_table(2_000, seed=4))
        wide = colscan.range_conjuncts(RangeSelection(["x"], [-4.0], [30.0]))
        assert selected_rows(part, wide) is None
        assert part.column("x")._index is not None  # it had to compare x

    def test_a_zone_proven_conjunct_builds_no_index(self):
        part = ColumnarPartition.from_table(mixed_table(2_000, seed=5))
        everything = colscan.range_conjuncts(
            RangeSelection(["x", "cat"], [-1e9, 2.5], [1e9, 3.5])
        )
        assert selected_rows(part, everything) is None
        assert part.column("x")._index is None


def both_paths(table, selection, aggregate):
    """(columnar single-query partial, row-layout partial) of one partition."""
    spec = QueryPartialSpec(selection, aggregate)
    [(_, got)] = spec(ColumnarPartition.from_table(table))
    [(_, want)] = spec(table)
    return got, want


class TestPartialsEqualTheRowPath:
    def test_every_aggregate_every_selection_bitwise(self):
        table = mixed_table(3_000, seed=6, nan_fraction=0.01)
        part = ColumnarPartition.from_table(table)
        for selection in selections():
            for aggregate in AGGREGATES:
                spec = QueryPartialSpec(selection, aggregate)
                [(_, got)] = spec(part)
                [(_, want)] = spec(table)
                assert as_bytes(got) == as_bytes(want), (selection, aggregate)
                mask = selection.mask(table)
                assert as_bytes(want) == as_bytes(
                    aggregate.partial_from_mask(table, mask)
                )

    def test_empty_selection_gives_each_aggregate_its_empty_partial(self):
        table = mixed_table(1_000, seed=7)
        empty = table.slice_rows(0, 0)
        nothing = RangeSelection(["x"], [100.0], [200.0])
        for aggregate in AGGREGATES:
            got, want = both_paths(table, nothing, aggregate)
            assert as_bytes(got) == as_bytes(want)
            assert as_bytes(got) == as_bytes(aggregate.partial(empty))

    def test_bounds_resolve_to_python_floats_once_per_query(self):
        spec = QueryPartialSpec(
            RangeSelection(["x", "cat"], [-1.0, 2.0], [1.0, 3.0]), Sum("v")
        )
        assert spec.conjuncts == (("x", -1.0, 1.0), ("cat", 2.0, 3.0))
        assert all(type(b) is float for _, lo, hi in spec.conjuncts for b in (lo, hi))
        assert spec.columns == ("v",)

    def test_narrow_float_columns_compare_as_the_selection_does(self):
        # A Python-float bound against float32 would compare in float32:
        # 0.1f is above 0.1 but not above 0.1 + 1e-12 in float64.
        f32 = np.full(8, 0.1, dtype=np.float32)
        table = Table({"s": f32, "v": np.arange(8.0)}, name="t")
        selection = RangeSelection(["s"], [float(f32[0]) + 1e-12], [1.0])
        assert not selection.mask(table).any()
        for aggregate in (Count(), Sum("v")):
            got, want = both_paths(table, selection, aggregate)
            assert as_bytes(got) == as_bytes(want)
        assert not encoded_mask(ColumnarPartition.from_table(table), selection).any()


# ---------------------------------------------------------------------------
# Through the engine: a partition re-encoded by an epoch close
# ---------------------------------------------------------------------------
def stores(table):
    out = []
    for layout in (LAYOUT_ROW, LAYOUT_COLUMN):
        store = DistributedStore(ClusterTopology.single_datacenter(2), layout=layout)
        store.put_table(table, partitions_per_node=2)
        out.append((store, store.enable_ingest(IngestConfig(epoch_seconds=1.0))))
    return out


class TestEpochClose:
    def test_a_recompacted_partition_answers_from_its_new_column(self):
        table = mixed_table(8_000, seed=8)
        (row_store, row_ingest), (col_store, col_ingest) = stores(table)
        queries = [
            AnalyticsQuery("t", selection, aggregate)
            for selection in selections()
            for aggregate in AGGREGATES
        ]

        def check():
            row_engine, col_engine = ExactEngine(row_store), ExactEngine(col_store)
            for query in queries:
                want, want_cost = row_engine.execute(query)
                got, got_cost = col_engine.execute(query)
                assert as_bytes(got) == as_bytes(want), query
                assert repr(got) == repr(want)

        check()  # builds the indexes of every partition's x
        first = col_store.table("t").partitions[0].columnar.column("x")
        assert first._index is not None
        # Rows inside the narrow windows land on partition 0 and the
        # close re-encodes it: a stale index would miss every one of them.
        rng = np.random.default_rng(9)
        batch = Table(
            {
                "ts": np.full(600, 3.0),
                "cat": rng.integers(0, 20, 600).astype(float),
                "x": rng.uniform(-1.0, 1.0, 600),
                "v": rng.normal(5.0, 3.0, 600),
                "w": rng.uniform(-1.0, 1.0, 600),
            },
            name="t",
        )
        for _, ingest in ((row_store, row_ingest), (col_store, col_ingest)):
            ingest.append("t", batch)
            ingest.flush()
        part = col_store.table("t").partitions[0]
        assert not part.dirty
        fresh = part.columnar.column("x")
        assert fresh is not first and fresh._index is None
        check()
        assert fresh._index is not None

    def test_costs_do_not_depend_on_which_path_ran(self, monkeypatch):
        table = mixed_table(8_000, seed=11)
        store = DistributedStore(
            ClusterTopology.single_datacenter(2), layout=LAYOUT_COLUMN
        )
        store.put_table(table, partitions_per_node=2)
        queries = [
            AnalyticsQuery("t", selection, aggregate)
            for selection in selections()
            for aggregate in (Count(), Sum("v"), Correlation("v", "w"))
        ]
        driven = [ExactEngine(store).execute(q) for q in queries]
        monkeypatch.setattr(colscan, "ROWS_MAX_SHARE", -1.0)  # masks only
        masked = [ExactEngine(store).execute(q) for q in queries]
        for (a, a_cost), (b, b_cost) in zip(driven, masked):
            assert as_bytes(a) == as_bytes(b)
            assert a_cost.__dict__ == b_cost.__dict__


# ---------------------------------------------------------------------------
# Two threads on a fresh column
# ---------------------------------------------------------------------------
class TestConcurrentFirstTouch:
    THREADS = 4  # more than the cores of a typical CI runner

    def test_threads_build_and_read_the_same_answer(self):
        table = mixed_table(60_000, seed=10)
        work = [
            (selection, aggregate)
            for selection in selections()[:2] + selections()[4:6]
            for aggregate in (Count(), Sum("v"), Median("v"))
        ]

        def partials(payload):
            return [
                as_bytes(QueryPartialSpec(selection, aggregate)(payload)[0][1])
                for selection, aggregate in work
            ]

        want = partials(table)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the builds as finely as possible
        try:
            for _ in range(3):
                part = ColumnarPartition.from_table(table)  # every column fresh
                barrier = threading.Barrier(self.THREADS)
                results = [None] * self.THREADS

                def touch(slot, part=part, barrier=barrier, results=results):
                    barrier.wait(timeout=30)
                    results[slot] = partials(part)

                threads = [
                    threading.Thread(target=touch, args=(i,))
                    for i in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(result == want for result in results)
                index = part.column("x").sorted_index()
                assert np.array_equal(np.sort(index.order), np.arange(table.n_rows))
        finally:
            sys.setswitchinterval(switch)
