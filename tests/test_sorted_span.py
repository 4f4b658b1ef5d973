"""A range over a sorted column is answered by position (DESIGN §7).

The row map kernel turns range conjuncts over columns a table knows to
be sorted into binary searches and compares the rest over that span
only.  It must select exactly the rows ``RangeSelection.mask`` selects —
which stays the plain comparison and is the reference here — for every
aggregate, whatever the order, the NaNs, the ties or the bounds.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tabular import Table
from repro.engine.specs import QueryPartialSpec, _span_mask
from repro.queries import (
    AnalyticsQuery,
    Correlation,
    Count,
    Max,
    Mean,
    Median,
    Min,
    Quantile,
    RadiusSelection,
    RangeSelection,
    RegressionCoefficients,
    Std,
    Sum,
    Variance,
)
from repro.queries import aggregates as aggregates_module
from repro.session import SEASession

AGGREGATES = [
    Count(),
    Sum("v"),
    Mean("v"),
    Std("v"),
    Min("v"),
    Max("v"),
    Variance("w"),
    Median("v"),
    Quantile("w", 0.3),
    Correlation("v", "w"),
    RegressionCoefficients("v", ["w"]),
]


def test_every_aggregate_is_covered():
    public = {
        cls
        for _, cls in inspect.getmembers(aggregates_module, inspect.isclass)
        if issubclass(cls, aggregates_module.Aggregate)
        and not cls.__name__.startswith("_")
        and cls is not aggregates_module.Aggregate
    }
    assert public == {type(a) for a in AGGREGATES}


def as_bytes(partial) -> bytes:
    """A partial's exact bits (floats, ints, arrays, tuples of them)."""
    if isinstance(partial, tuple):
        return b"|".join(as_bytes(p) for p in partial)
    return np.asarray(partial).tobytes()


#: Few distinct keys: ties on the bounds, signed zeros and infinities.
KEYS = [-np.inf, -2.0, -0.0, 0.0, 1.0, 1.0, 3.0, np.inf]
BOUNDS = KEYS + [np.nan, -1.0, 0.5, 2.0]


@st.composite
def key_columns(draw, n):
    """Sorted, nearly sorted (one swap), NaN-bearing or shuffled keys."""
    col = np.asarray(
        draw(st.lists(st.sampled_from(KEYS), min_size=n, max_size=n)), dtype=float
    )
    kind = draw(st.sampled_from(["sorted", "swapped", "nan", "shuffled"]))
    if kind == "shuffled" or n == 0:
        return col
    col.sort()
    at = draw(st.integers(0, n - 1))
    if kind == "swapped":
        other = draw(st.integers(0, n - 1))
        col[[at, other]] = col[[other, at]]
    elif kind == "nan":
        col[at] = np.nan
    return col


@st.composite
def worlds(draw):
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    table = Table(
        {
            "s": draw(key_columns(n)),
            "t": draw(key_columns(n)),
            "u": rng.integers(-2, 4, n).astype(float),
            "i": np.sort(rng.integers(-3, 3, n)),  # a sorted integer column
            "v": rng.normal(0.0, 5.0, n),
            "w": rng.uniform(-1.0, 1.0, n),
        },
        name="g",
    )
    columns = draw(
        st.lists(
            st.sampled_from(["s", "t", "u", "i"]), min_size=1, max_size=3
        )
    )
    lows, highs = [], []
    for _ in columns:
        a, b = draw(st.sampled_from(BOUNDS)), draw(st.sampled_from(BOUNDS))
        if a > b:  # (a NaN on either side compares False and stays put)
            a, b = b, a
        lows.append(a)
        highs.append(b)
    return table, RangeSelection(columns, lows, highs)


class TestKernelEqualsThePlainMask:
    @given(worlds(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_aggregate_bitwise(self, world, ask_first):
        table, selection = world
        if ask_first:  # the answers may be remembered or asked by the kernel
            for name in ("s", "t", "u", "i"):
                table.is_sorted(name)
        want_mask = selection.mask(table)
        got_mask = _span_mask(table, selection)
        assert got_mask.dtype == np.bool_ and np.array_equal(got_mask, want_mask)
        for aggregate in AGGREGATES:
            [(key, got)] = QueryPartialSpec(selection, aggregate)(table)
            want = aggregate.partial_from_mask(table, want_mask)
            assert key == 0 and as_bytes(got) == as_bytes(want)

    def test_bounds_land_where_the_comparisons_put_them(self):
        table = Table({"s": np.array([-1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0])})
        for lo, hi, want in [
            (0.0, 1.0, 5),  # -0.0 == 0.0: inside; both 1.0 inside
            (-0.0, 0.0, 3),
            (1.0, 1.0, 2),
            (-np.inf, np.inf, 7),
            (0.5, 0.75, 0),  # empty span between two rows
            (5.0, np.inf, 0),  # past the end
            (-np.inf, -3.0, 0),  # before the start
            (np.nan, 1.0, 0),
            (0.0, np.nan, 0),
        ]:
            selection = RangeSelection(["s"], [lo], [hi])
            assert int(_span_mask(table, selection).sum()) == want
            assert int(selection.mask(table).sum()) == want

    def test_an_empty_span_gives_each_aggregate_its_own_empty_partial(self):
        rng = np.random.default_rng(0)
        table = Table(
            {"s": np.arange(20.0), "v": rng.normal(size=20), "w": rng.normal(size=20)}
        )
        nothing = RangeSelection(["s"], [30.0], [np.inf])
        empty = table.slice_rows(0, 0)
        for aggregate in AGGREGATES:
            [(_, got)] = QueryPartialSpec(nothing, aggregate)(table)
            assert as_bytes(got) == as_bytes(aggregate.partial(empty))
        assert QueryPartialSpec(nothing, Sum("v"))(table) == [(0, 0.0)]
        assert QueryPartialSpec(nothing, Mean("v"))(table) == [(0, (0.0, 0))]
        assert QueryPartialSpec(nothing, Min("v"))(table) == [(0, np.inf)]

    def test_only_the_span_is_compared(self):
        """The residual conjunct never sees rows outside the span."""
        n = 10_000
        table = Table({"s": np.arange(float(n)), "u": np.arange(n) % 2.0})
        assert table.is_sorted("s") and not table.is_sorted("u")

        class Watched(np.ndarray):
            seen = []

            def __ge__(self, other):
                Watched.seen.append(self.shape[0])
                return np.asarray(self) >= other

        table._columns["u"] = table._columns["u"].view(Watched)
        selection = RangeSelection(["s", "u"], [100.0, 0.0], [149.0, 1.0])
        assert int(_span_mask(table, selection).sum()) == 50
        assert Watched.seen == [50]

    def test_other_selections_take_their_own_mask(self):
        table = Table({"s": np.arange(5.0), "v": np.arange(5.0)})
        ball = RadiusSelection(["s"], [2.0], 1.0)
        assert np.array_equal(_span_mask(table, ball), ball.mask(table))


# ---------------------------------------------------------------------------
# End to end: a dirty ingest store, both layouts
# ---------------------------------------------------------------------------
def arrivals(first, n, seed):
    rng = np.random.default_rng(seed)
    return Table(
        {
            "ts": first + np.arange(float(n)),
            "x0": rng.uniform(0.0, 100.0, n),
            "v": rng.normal(50.0, 10.0, n),
        },
        name="data",
    )


def tail_queries(tail):
    for depth, lo, hi in [(40, 10.0, 90.0), (400, 0.0, 100.0), (3, 30.0, 60.0)]:
        selection = RangeSelection(
            ["ts", "x0"], [tail - depth, lo], [tail, hi]
        )
        for aggregate in (Count(), Mean("v"), Std("v"), Median("v")):
            yield AnalyticsQuery("data", selection, aggregate)
    everything = RangeSelection(["x0", "ts"], [20.0, -np.inf], [80.0, np.inf])
    yield AnalyticsQuery("data", everything, Sum("v"))


@pytest.mark.parametrize("layout", ["row", "column"])
def test_exact_answers_on_a_dirty_store_match_ground_truth(layout):
    with SEASession(
        n_nodes=2, partitions_per_node=2, layout=layout, ingest=True
    ) as session:
        session.load_table(arrivals(0.0, 2_000, seed=1))

        def read_all(tail):
            for query in tail_queries(tail):
                answer, _ = session.engine.execute(query)
                truth = session.engine.ground_truth(query)
                assert as_bytes(answer) == as_bytes(truth)

        read_all(1_999.0)  # clean: sorted base images
        session.append_rows("data", arrivals(2_000.0, 64, seed=2))
        read_all(2_063.0)  # dirty, in arrival order
        session.append_rows("data", arrivals(2_064.0, 3, seed=3))
        read_all(2_066.0)  # the same partition grew again, the rest are clean
        session.delete_rows("data", lambda view: view.column("ts") < 100.0)
        read_all(2_066.0)  # views rebuilt by select
        session.append_rows("data", arrivals(500.0, 8, seed=4))  # late rows
        read_all(2_066.0)  # ts is unsorted now: masks again, same answers
        session.flush()
        read_all(2_066.0)  # compacted, still unsorted
