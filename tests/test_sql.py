"""Tests for the SQL-like front end (repro.queries.sql)."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.data import Table
from repro.queries import parse_query
from repro.queries import sql as sql_module
from repro.queries.aggregates import (
    Correlation,
    Count,
    Max,
    Mean,
    Median,
    Min,
    Quantile,
    RegressionCoefficients,
    Std,
    Sum,
    Variance,
)


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    return Table(
        {
            "x0": rng.uniform(0, 100, 2000),
            "x1": rng.uniform(0, 100, 2000),
            "value": rng.normal(size=2000),
        },
        name="sensors",
    )


class TestParsing:
    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM sensors WHERE x0 BETWEEN 0 AND 10")
        assert isinstance(query.aggregate, Count)
        assert query.table_name == "sensors"

    def test_between_bounds(self):
        query = parse_query(
            "SELECT COUNT(*) FROM t WHERE x0 BETWEEN 10 AND 20"
        )
        sel = query.selection
        assert sel.columns == ("x0",)
        assert sel.lows.tolist() == [10.0]
        assert sel.highs.tolist() == [20.0]

    def test_comparison_pairs_form_box(self):
        query = parse_query(
            "SELECT COUNT(*) FROM t WHERE x0 >= 10 AND x0 <= 20 AND x1 > 5 AND x1 < 8"
        )
        sel = query.selection
        assert sel.columns == ("x0", "x1")
        assert sel.lows.tolist() == [10.0, 5.0]
        assert sel.highs.tolist() == [20.0, 8.0]

    def test_open_ended_comparison_clamps(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE x0 >= 42")
        sel = query.selection
        assert sel.lows[0] == 42.0
        assert sel.highs[0] > 1e17

    def test_mixed_between_and_compare(self):
        query = parse_query(
            "SELECT SUM(value) FROM t WHERE x0 BETWEEN 1 AND 2 AND x1 <= 9"
        )
        assert isinstance(query.aggregate, Sum)
        assert query.selection.columns == ("x0", "x1")

    @pytest.mark.parametrize(
        "sql,kind",
        [
            ("SELECT SUM(value) FROM t WHERE x0 >= 0", Sum),
            ("SELECT AVG(value) FROM t WHERE x0 >= 0", Mean),
            ("SELECT MEAN(value) FROM t WHERE x0 >= 0", Mean),
            ("SELECT MIN(value) FROM t WHERE x0 >= 0", Min),
            ("SELECT MAX(value) FROM t WHERE x0 >= 0", Max),
            ("SELECT STD(value) FROM t WHERE x0 >= 0", Std),
            ("SELECT VAR(value) FROM t WHERE x0 >= 0", Variance),
            ("SELECT MEDIAN(value) FROM t WHERE x0 >= 0", Median),
        ],
    )
    def test_single_column_aggregates(self, sql, kind):
        assert isinstance(parse_query(sql).aggregate, kind)

    def test_quantile(self):
        query = parse_query(
            "SELECT QUANTILE(value, 0.75) FROM t WHERE x0 >= 0"
        )
        assert isinstance(query.aggregate, Quantile)
        assert query.aggregate.q == 0.75

    def test_corr(self):
        query = parse_query("SELECT CORR(x0, value) FROM t WHERE x1 >= 0")
        assert isinstance(query.aggregate, Correlation)

    def test_regr(self):
        query = parse_query(
            "SELECT REGR(value; x0, x1) FROM t WHERE x0 BETWEEN 0 AND 1"
        )
        assert isinstance(query.aggregate, RegressionCoefficients)
        assert query.aggregate.features == ("x0", "x1")
        assert query.answer_dim == 3

    def test_case_insensitive_and_trailing_semicolon(self):
        query = parse_query(
            "select count(*) from t where x0 between 1 and 2;"
        )
        assert isinstance(query.aggregate, Count)

    def test_contradictory_bounds_rejected(self):
        with pytest.raises(QueryError, match="contradictory"):
            parse_query("SELECT COUNT(*) FROM t WHERE x0 >= 10 AND x0 <= 5")

    def test_missing_where_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(*) FROM t")

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("DROP TABLE students")

    def test_unsupported_aggregate_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT MODE(value) FROM t WHERE x0 >= 0")

    def test_count_of_column_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(value) FROM t WHERE x0 >= 0")

    def test_dangling_between_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(*) FROM t WHERE x0 BETWEEN 5")

    def test_corr_arity_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT CORR(x0) FROM t WHERE x0 >= 0")


class TestSemantics:
    def test_count_matches_manual(self, table):
        query = parse_query(
            "SELECT COUNT(*) FROM sensors WHERE x0 BETWEEN 10 AND 60 "
            "AND x1 BETWEEN 20 AND 80"
        )
        manual = (
            (table["x0"] >= 10)
            & (table["x0"] <= 60)
            & (table["x1"] >= 20)
            & (table["x1"] <= 80)
        ).sum()
        assert query.evaluate(table) == float(manual)

    def test_avg_matches_numpy(self, table):
        query = parse_query(
            "SELECT AVG(value) FROM sensors WHERE x0 <= 50"
        )
        expected = table["value"][table["x0"] <= 50].mean()
        assert query.evaluate(table) == pytest.approx(expected)

    def test_parsed_query_works_with_agent(self, table):
        """SQL text all the way through the data-less agent."""
        from repro.baselines import ExactEngine
        from repro.cluster import ClusterTopology, DistributedStore
        from repro.core import AgentConfig, SEAAgent

        topo = ClusterTopology.single_datacenter(2)
        store = DistributedStore(topo)
        store.put_table(table)
        agent = SEAAgent(ExactEngine(store), AgentConfig(training_budget=10))
        record = agent.submit(
            parse_query(
                "SELECT COUNT(*) FROM sensors WHERE x0 BETWEEN 20 AND 60 "
                "AND x1 BETWEEN 20 AND 60"
            )
        )
        assert record.answer == parse_query(
            "SELECT COUNT(*) FROM sensors WHERE x0 BETWEEN 20 AND 60 "
            "AND x1 BETWEEN 20 AND 60"
        ).evaluate(table)


class TestSQLProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(-1000, 1000),
        st.floats(0.001, 500),
        st.floats(-1000, 1000),
        st.floats(0.001, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_between_roundtrip_property(self, lo0, w0, lo1, w1):
        """Any generated BETWEEN statement parses back to its own bounds."""
        sql = (
            f"SELECT COUNT(*) FROM t WHERE a BETWEEN {lo0!r} AND {lo0 + w0!r} "
            f"AND b BETWEEN {lo1!r} AND {lo1 + w1!r}"
        )
        query = parse_query(sql)
        sel = query.selection
        bounds = dict(zip(sel.columns, zip(sel.lows, sel.highs)))
        assert bounds["a"][0] == pytest.approx(lo0)
        assert bounds["a"][1] == pytest.approx(lo0 + w0)
        assert bounds["b"][0] == pytest.approx(lo1)
        assert bounds["b"][1] == pytest.approx(lo1 + w1)


# Statement templates: a repeated text is answered from the memo ---------------
_COLUMNS = ("x0", "x1", "x2", "value")
_AGGREGATES = st.sampled_from(
    [
        "COUNT(*)",
        "count(*)",
        "SUM(value)",
        "AVG(value)",
        "Mean(x1)",
        "MIN(x0)",
        "MAX(x0)",
        "STD(value)",
        "VAR(value)",
        "MEDIAN(value)",
        "QUANTILE(value, 0.9)",
        "CORR(x0, value)",
        "REGR(value; x0, x1)",
    ]
)
_NUMBERS = st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.integers(
    -1000, 1000
).map(str)


@st.composite
def _predicates(draw):
    column = draw(st.sampled_from(_COLUMNS))
    if draw(st.booleans()):
        lo, hi = draw(_NUMBERS), draw(_NUMBERS)
        between = draw(st.sampled_from(["BETWEEN", "between"]))
        return f"{column} {between} {lo} AND {hi}"
    op = draw(st.sampled_from([">=", "<=", ">", "<"]))
    return f"{column} {op} {draw(_NUMBERS)}"


@st.composite
def statements(draw):
    """Statements in the grammar; some contradictory, so some do not parse."""
    where = draw(st.sampled_from([" AND ", " and ", "  AND  "])).join(
        draw(st.lists(_predicates(), min_size=1, max_size=4))
    )
    return (
        f"SELECT {draw(_AGGREGATES)} FROM {draw(st.sampled_from(['t', 'data']))} "
        f"WHERE {where}{draw(st.sampled_from(['', ';', ' ']))}"
    )


def _memo_size() -> int:
    return sql_module._template.cache_info().currsize


def _assert_same_parse(got, want):
    assert got.table_name == want.table_name
    assert type(got.selection) is type(want.selection)
    assert got.selection.columns == want.selection.columns
    assert got.selection.lows.tobytes() == want.selection.lows.tobytes()
    assert got.selection.highs.tobytes() == want.selection.highs.tobytes()
    assert got.vector().tobytes() == want.vector().tobytes()
    assert got.vector().dtype == want.vector().dtype
    assert got.signature() == want.signature()
    assert got.extent_key() == want.extent_key()
    assert type(got.aggregate) is type(want.aggregate)
    assert vars(got.aggregate) == vars(want.aggregate)


class TestStatementTemplates:
    @given(statements())
    @settings(max_examples=200, deadline=None)
    def test_memoized_parse_equals_fresh_parse(self, text):
        try:
            want = sql_module._parse(text)
        except QueryError:
            before = _memo_size()
            for _ in range(2):  # raised every time, never stored
                with pytest.raises(QueryError):
                    parse_query(text)
            assert _memo_size() == before
            return
        _assert_same_parse(parse_query(text), want)  # first sight or repeat
        _assert_same_parse(parse_query(text), want)  # certainly a repeat

    def test_repeats_are_distinct_shells_around_shared_read_only_parts(self):
        text = "SELECT AVG(value) FROM t WHERE x0 BETWEEN 1 AND 2 AND x1 >= 3"
        first, second = parse_query(text), parse_query(text)
        assert first is not second
        assert first.selection is second.selection
        assert first.aggregate is second.aggregate
        assert first.vector() is second.vector()
        for array in (first.selection.lows, first.selection.highs, first.vector()):
            with pytest.raises(ValueError):
                array[0] = 0.0
        # A request may carry its own attributes; they stay its own.
        first.request_id = 7
        assert not hasattr(second, "request_id")
        assert not hasattr(parse_query(text), "request_id")

    def test_exact_text_is_the_key(self):
        """No normalisation: a respelling is another template, same meaning."""
        a = parse_query("SELECT COUNT(*) FROM t WHERE x0 BETWEEN 1 AND 2")
        b = parse_query("select COUNT(*) FROM t WHERE x0 BETWEEN 1 AND 2")
        assert a.selection is not b.selection
        assert a.extent_key() == b.extent_key()

    @pytest.mark.parametrize(
        "text",
        [
            "DROP TABLE students",
            "SELECT COUNT(*) FROM t",
            "SELECT COUNT(*) FROM t WHERE x0 >= 10 AND x0 <= 5",
            "SELECT COUNT(*) FROM t WHERE x0 BETWEEN 5",
            "SELECT MODE(value) FROM t WHERE x0 >= 0",
        ],
    )
    def test_errors_raise_every_time_and_are_never_stored(self, text):
        before = _memo_size()
        for _ in range(3):
            with pytest.raises(QueryError):
                parse_query(text)
        assert _memo_size() == before

    def test_memo_is_bounded(self):
        bound = sql_module.TEMPLATE_MEMO_SIZE
        for i in range(10_000):
            parse_query(f"SELECT COUNT(*) FROM t WHERE x0 BETWEEN {i} AND {i + 1}")
        assert _memo_size() == bound
        assert sql_module._template.cache_info().maxsize == bound
        # The oldest texts were dropped and simply parse again.
        query = parse_query("SELECT COUNT(*) FROM t WHERE x0 BETWEEN 0 AND 1")
        assert (query.selection.lows[0], query.selection.highs[0]) == (0.0, 1.0)

    def test_threads_parsing_an_overlapping_pool_never_raise(self):
        # More texts than the memo holds, so probes, inserts and
        # evictions all interleave.
        pool = [
            f"SELECT SUM(value) FROM t WHERE x0 BETWEEN {i} AND {i + 2} AND x1 <= {i}"
            for i in range(sql_module.TEMPLATE_MEMO_SIZE + 500)
        ]
        errors, parsed = [], [0, 0, 0]
        deadline = time.monotonic() + 1.0

        def worker(slot: int, step: int) -> None:
            i = slot * 1000
            try:
                while time.monotonic() < deadline:
                    i = (i + step) % len(pool)
                    query = parse_query(pool[i])
                    if query.selection.lows[0] != float(i):
                        raise AssertionError(f"{pool[i]!r} parsed as {query!r}")
                    parsed[slot] += 1
            except BaseException as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot, step))
            for slot, step in enumerate((1, 7, 4093))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(n > 0 for n in parsed)
        assert _memo_size() <= sql_module.TEMPLATE_MEMO_SIZE
