"""A small SQL-like front end for analytical queries.

Sec. III.A: analysts "can directly issue SQL(-like) queries, (e.g., in
Hive or Pig environments implemented on top of a BDAS)".  This module
parses the analytical fragment those queries take in the paper — one
aggregate over one table restricted to a conjunctive range predicate —
into an :class:`~repro.queries.query.AnalyticsQuery`:

    SELECT COUNT(*)        FROM sensors WHERE x0 BETWEEN 10 AND 20
    SELECT AVG(value)      FROM sensors WHERE x0 >= 10 AND x0 <= 20 AND x1 < 5
    SELECT CORR(x0, value) FROM sensors WHERE x1 BETWEEN 0 AND 50
    SELECT REGR(value; x0, x1) FROM sensors WHERE x0 BETWEEN 10 AND 30

Supported aggregates: COUNT(*), SUM/AVG/MEAN, MIN, MAX, STD, VAR,
MEDIAN, QUANTILE(col, q), CORR(a, b), REGR(target; features...).
Predicates: ``BETWEEN a AND b``, ``>=``, ``<=``, ``>``, ``<``, joined by
``AND``.  Open-ended comparisons clamp against +-1e18 (effectively
unbounded).  The grammar is deliberately tiny: it is an analyst-facing
convenience, not a SQL engine.

Statement templates.  Dashboards and agent clients re-send the same
statement texts at high rates, and a parse is a pure function of the
text, so :func:`parse_query` remembers the last ``TEMPLATE_MEMO_SIZE``
distinct texts it parsed: table, selection, aggregate, query vector,
signature and answer-cache key, built once and marked read-only.  Every
call still returns a *fresh* :class:`AnalyticsQuery` around those shared
parts, because requests are told apart by query identity (profiles,
served records).  The key is the exact text — no case or whitespace
normalisation — so no statement can ever be answered with another's
bounds; a variant spelling only costs one more parse.  Statements that
do not parse raise every time and are never remembered.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.common.errors import QueryError
from repro.queries.aggregates import (
    Aggregate,
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
from repro.queries.query import AnalyticsQuery
from repro.queries.selections import RangeSelection

_UNBOUNDED = 1e18

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"

_QUERY_RE = re.compile(
    r"^\s*SELECT\s+(?P<agg>.+?)\s+FROM\s+(?P<table>\w+)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_BETWEEN_RE = re.compile(
    rf"^(?P<col>\w+)\s+BETWEEN\s+(?P<lo>{_NUMBER})\s+AND\s+(?P<hi>{_NUMBER})$",
    re.IGNORECASE,
)

_HALF_BETWEEN_RE = re.compile(rf"^\w+\s+BETWEEN\s+{_NUMBER}$", re.IGNORECASE)

_AND_RE = re.compile(r"\s+AND\s+", re.IGNORECASE)

_COMPARE_RE = re.compile(
    rf"^(?P<col>\w+)\s*(?P<op>>=|<=|>|<)\s*(?P<value>{_NUMBER})$"
)

_AGG_RE = re.compile(r"^(?P<name>\w+)\s*\(\s*(?P<args>[^)]*)\s*\)$")

#: Statement texts remembered, least recently used dropped first: twice
#: the answer cache's default 2 048 entries, so a statement whose cached
#: answer was just invalidated or evicted still finds its template, and
#: never more than a few MiB of parsed parts.
TEMPLATE_MEMO_SIZE = 4096


def parse_query(sql: str) -> AnalyticsQuery:
    """Parse one SQL-like statement into an :class:`AnalyticsQuery`.

    A repeated text costs a memo probe and a new query shell; the
    returned query's selection bounds and vector are read-only and may
    be shared with other queries parsed from the same text.
    """
    return _template(sql).shell()


@lru_cache(maxsize=TEMPLATE_MEMO_SIZE)
def _template(sql: str) -> AnalyticsQuery:
    """The shared, read-only parse of one exact text (never handed out).

    ``lru_cache`` is the whole memo: bounded, safe to call from the
    gateway loop and ``SEASession.sql`` threads at once (at worst two
    threads both parse a text neither has seen), and an exception leaves
    it untouched.
    """
    query = _parse(sql)
    selection = query.selection
    for shared in (selection.lows, selection.highs, query.vector()):
        shared.setflags(write=False)
    query.extent_key()  # fills the signature too
    return query


def _parse(sql: str) -> AnalyticsQuery:
    """The uncached parse: what a text means, computed from scratch."""
    match = _QUERY_RE.match(sql)
    if match is None:
        raise QueryError(
            f"cannot parse {sql!r}: expected "
            "'SELECT <aggregate> FROM <table> [WHERE <predicates>]'"
        )
    aggregate = _parse_aggregate(match.group("agg"))
    table = match.group("table")
    bounds = _parse_where(match.group("where"))
    if not bounds:
        raise QueryError(
            "a WHERE clause with at least one range predicate is required "
            "(analytical queries select a data subspace, Sec. III.A)"
        )
    columns = sorted(bounds)
    lows = [bounds[c][0] for c in columns]
    highs = [bounds[c][1] for c in columns]
    selection = RangeSelection(tuple(columns), lows, highs)
    return AnalyticsQuery(table, selection, aggregate)


def _parse_aggregate(text: str) -> Aggregate:
    text = text.strip()
    match = _AGG_RE.match(text)
    if match is None:
        raise QueryError(f"cannot parse aggregate {text!r}")
    name = match.group("name").upper()
    args = [a.strip() for a in _split_args(match.group("args"))]
    if name == "COUNT":
        if args not in ([""], ["*"]):
            raise QueryError("COUNT takes '*' (per-column counts unsupported)")
        return Count()
    if name == "REGR":
        raw = match.group("args")
        if ";" not in raw:
            raise QueryError("REGR syntax: REGR(target; feature1, feature2...)")
        target, features_text = raw.split(";", 1)
        features = [f.strip() for f in features_text.split(",") if f.strip()]
        if not features:
            raise QueryError("REGR needs at least one feature column")
        return RegressionCoefficients(target.strip(), features)
    if name == "CORR":
        if len(args) != 2 or not all(args):
            raise QueryError("CORR takes exactly two columns")
        return Correlation(args[0], args[1])
    if name == "QUANTILE":
        if len(args) != 2:
            raise QueryError("QUANTILE takes (column, q)")
        return Quantile(args[0], float(args[1]))
    single = {
        "SUM": Sum,
        "AVG": Mean,
        "MEAN": Mean,
        "MIN": Min,
        "MAX": Max,
        "STD": Std,
        "VAR": Variance,
        "VARIANCE": Variance,
        "MEDIAN": Median,
    }
    if name in single:
        if len(args) != 1 or not args[0] or args[0] == "*":
            raise QueryError(f"{name} takes exactly one column")
        return single[name](args[0])
    raise QueryError(f"unsupported aggregate {name!r}")


def _split_args(text: str) -> List[str]:
    return text.split(",") if text.strip() else [""]


def _parse_where(where: Optional[str]) -> Dict[str, Tuple[float, float]]:
    """Conjunctive predicates -> per-column (lo, hi) bounds."""
    if where is None:
        return {}
    bounds: Dict[str, Tuple[float, float]] = {}
    # Split on AND, then re-join the AND that belongs to BETWEEN a AND b.
    raw = _AND_RE.split(where.strip())
    parts: List[str] = []
    i = 0
    while i < len(raw):
        token = raw[i].strip()
        if _HALF_BETWEEN_RE.match(token):
            if i + 1 >= len(raw):
                raise QueryError(f"dangling BETWEEN in {where!r}")
            token = f"{token} AND {raw[i + 1].strip()}"
            i += 1
        parts.append(token)
        i += 1
    for part in parts:
        part = part.strip()
        between = _BETWEEN_RE.match(part)
        if between:
            _merge(
                bounds,
                between.group("col"),
                float(between.group("lo")),
                float(between.group("hi")),
            )
            continue
        compare = _COMPARE_RE.match(part)
        if compare is None:
            raise QueryError(f"cannot parse predicate {part!r}")
        column = compare.group("col")
        value = float(compare.group("value"))
        op = compare.group("op")
        if op in (">=", ">"):
            _merge(bounds, column, value, _UNBOUNDED)
        else:
            _merge(bounds, column, -_UNBOUNDED, value)
    return bounds


def _merge(
    bounds: Dict[str, Tuple[float, float]], column: str, lo: float, hi: float
) -> None:
    if column in bounds:
        old_lo, old_hi = bounds[column]
        lo, hi = max(old_lo, lo), min(old_hi, hi)
    if lo > hi:
        raise QueryError(
            f"contradictory predicates on {column!r}: [{lo}, {hi}] is empty"
        )
    bounds[column] = (lo, hi)
