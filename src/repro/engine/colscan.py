"""Encoded-column scan kernels: predicates + late materialization.

The row-major exact path reads a whole partition, builds a selection
mask, and feeds masked columns to the aggregate.  This module is the
columnar twin: selection bounds are evaluated *directly on the encoded
columns* (dictionary-domain comparison, run-level comparison + expansion,
vectorized compares on raw buffers — one fused numpy pass per column, no
per-row python), and only the surviving rows of the columns the
aggregate actually reads are ever decoded into :class:`Table` form.

A single query over a range selection goes further when one residual
conjunct over a raw float64 column is selective: the column's
:class:`~repro.cluster.columnar.SortedIndex` turns it into two binary
searches and the row positions between them, every other conjunct is
compared at those rows only, and the aggregate gathers them
(:func:`selected_rows`).  Cost then follows the rows the predicate keeps,
not the rows stored.

Bitwise identity with the row path is the contract, not an aspiration:

* every encoded range mask equals ``RangeSelection.mask`` on the decoded
  table (floating-point comparisons are exact, and distributing a
  comparison over a dictionary/run domain is a pure re-association of
  *which* rows are compared, never of the comparison itself);
* :func:`selected_rows` returns exactly the true positions of that
  mask, ascending, and ``partial_from_mask`` is ``partial_from_rows`` at
  those positions, both over :func:`aggregate_table` (the decoded
  columns the aggregate reads) — the same rows gathered in the same
  order, so partials, shuffle payload estimates, and merged answers are
  identical at any worker count.

Pushdown is *conservative*: only selection and aggregate types whose
column sets are statically known participate (:func:`scan_columns`
returns None otherwise), and unknown shapes fall back to a full decode,
which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.columnar import RAW, ColumnarPartition
from repro.cluster.synopsis import zone_within
from repro.data.tabular import Table
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
from repro.queries.selections import (
    KNNSelection,
    RadiusSelection,
    RangeSelection,
    Selection,
)


@dataclass(frozen=True)
class ColumnScan:
    """A column-pruned scan request: the columns one job must read."""

    columns: Tuple[str, ...]


#: Exact aggregate types with statically known column sets.  Exact-type
#: keys (not isinstance) keep the pushdown conservative: a subclass with
#: overridden partials simply falls back to the row-identical full path.
_COLUMN_AGGREGATES = (Sum, Mean, Std, Variance, Min, Max, Median, Quantile)
_SELECTION_TYPES = (RangeSelection, RadiusSelection, KNNSelection)

#: :func:`selected_rows` serves a partition only when its driving conjunct
#: keeps at most this share of the rows.  Past it, sorting k positions
#: and gathering each other conjunct and the aggregate at them costs more
#: than fused compares over all rows: on a 31 250-row partition the two
#: paths cross at 10-17 % for ``COUNT`` (whose mask path only counts) and
#: at 25-40 % for ``SUM`` (whose mask path gathers too); EXPERIMENTS E21.
ROWS_MAX_SHARE = 0.25

#: A range selection as ``(column, lo, hi)`` triples, Python-float bounds.
Conjuncts = Tuple[Tuple[str, float, float], ...]


def aggregate_columns(aggregate: Aggregate) -> Optional[Tuple[str, ...]]:
    """Columns ``aggregate`` reads, or None when not statically known."""
    kind = type(aggregate)
    if kind is Count:
        return ()
    if kind in _COLUMN_AGGREGATES:
        return (aggregate.column,)
    if kind is Correlation:
        return (aggregate.column_a, aggregate.column_b)
    if kind is RegressionCoefficients:
        return tuple(aggregate.features) + (aggregate.target,)
    return None


def selection_columns(selection: Selection) -> Optional[Tuple[str, ...]]:
    """Columns ``selection`` reads, or None when not statically known."""
    if type(selection) in _SELECTION_TYPES:
        return tuple(selection.columns)
    return None


def scan_columns(
    selection: Selection, aggregate: Aggregate
) -> Optional[ColumnScan]:
    """The column-pruned scan for one query, or None (read everything).

    The scan covers the selection's predicate columns plus the
    aggregate's input columns, deduplicated in first-use order; any
    statically unknown shape disables pushdown for the whole query.
    """
    sel = selection_columns(selection)
    agg = aggregate_columns(aggregate)
    if sel is None or agg is None:
        return None
    return ColumnScan(tuple(dict.fromkeys(sel + agg)))


# Encoded predicate evaluation ----------------------------------------------
def range_conjuncts(selection: Selection) -> Optional[Conjuncts]:
    """A range selection's ``(column, lo, hi)`` with Python-float bounds.

    Resolved once per query (``QueryPartialSpec``): the kernels then
    compare, bisect and search with plain floats on every partition
    instead of iterating numpy float64 scalars there.  None for every
    other selection type.
    """
    if type(selection) is not RangeSelection:
        return None
    return tuple(
        zip(selection.columns, selection.lows.tolist(), selection.highs.tolist())
    )


def encoded_mask(
    part: ColumnarPartition,
    selection: Selection,
    conjuncts: Optional[Conjuncts] = None,
) -> np.ndarray:
    """``selection.mask`` evaluated on encoded columns, bitwise equal.

    Range selections run per-encoding kernels (dictionary-domain
    comparison, run skipping, fused raw compares) for the *residual*
    conjuncts only: one whose bounds contain the column's zone selects
    every row (a proof that fails on NaN, see ``zone_within``), so its
    all-true mask is neither built nor and-ed in.  Other selections
    decode just their predicate columns into a scratch table — column
    pruning still applies, only the late-materialization step is lost.
    ``conjuncts`` is :func:`range_conjuncts` when the caller resolved it.
    """
    if conjuncts is None:
        conjuncts = range_conjuncts(selection)
    if conjuncts is not None:
        out = None
        for name, lo, hi in conjuncts:
            column = part.column(name)
            if zone_within(*column.zone(), lo, hi):
                continue
            if out is None:
                out = column.range_mask(lo, hi)  # a fresh array: ours to and into
            else:
                out &= column.range_mask(lo, hi)
        return np.ones(part.n_rows, dtype=bool) if out is None else out
    scratch = Table(
        {name: part.column(name).decode() for name in selection.columns},
        name=part.name,
        value_bytes=part.value_bytes,
    )
    return selection.mask(scratch)


def selected_rows(
    part: ColumnarPartition, conjuncts: Conjuncts
) -> Optional[np.ndarray]:
    """Ascending positions of the rows the conjuncts select, or None.

    ``np.flatnonzero(encoded_mask(part, selection))`` without the mask.
    Of the residual conjuncts (the zone did not prove them true), the one
    over a raw float64 column whose sorted index spans the fewest rows
    drives; every other residual conjunct is compared at those rows only
    (``range_mask_at``: codes for a dictionary column, values for a raw
    one, the expanded mask for any other), and the survivors are sorted,
    so aggregates gather them in the scan's order.  None when no raw
    conjunct keeps at most :data:`ROWS_MAX_SHARE` of the partition: the
    caller builds the mask.  Indexes are built here, on the first
    conjunct that has to compare a column, and stay with the (immutable)
    column.
    """
    residual = []
    driver = None
    best = part.n_rows * ROWS_MAX_SHARE
    for name, lo, hi in conjuncts:
        column = part.column(name)
        if zone_within(*column.zone(), lo, hi):
            continue
        if column.kind == RAW and column.indexable:
            index = column.sorted_index()
            start, stop = index.span(lo, hi)
            if stop - start <= best:
                best = stop - start
                driver = (len(residual), index.order[start:stop])
        residual.append((column, lo, hi))
    if driver is None:
        return None
    position, rows = driver
    for i, (column, lo, hi) in enumerate(residual):
        if i != position and rows.shape[0]:
            rows = rows.compress(column.range_mask_at(rows, lo, hi))
    # The narrow positions sort in half the time of intp ones, and intp
    # is what the aggregates' gathers index fastest with (no cast).
    return np.sort(rows).astype(np.intp)


def encoded_batch_masks(
    selections: Sequence[Selection], part: ColumnarPartition
) -> List[np.ndarray]:
    """Masks for many selections over one columnar partition.

    The encoded twin of :func:`repro.queries.selections.batch_masks`: a
    homogeneous batch of range selections over the same columns shares
    one encoded read per column (one broadcast comparison over the
    dictionary/run/raw domain); mixed batches fall back to the
    per-selection loop.  Every mask is bitwise equal to
    ``encoded_mask(part, selection)``.
    """
    if not selections:
        return []
    if len(selections) >= 2 and all(
        type(s) is RangeSelection for s in selections
    ):
        columns = selections[0].columns
        if all(s.columns == columns for s in selections[1:]):
            lows = np.stack([s.lows for s in selections])
            highs = np.stack([s.highs for s in selections])
            out: Optional[np.ndarray] = None
            for j, name in enumerate(columns):
                masks = part.column(name).batch_range_masks(
                    lows[:, j], highs[:, j]
                )
                out = masks if out is None else out & masks
            if out is None:  # zero predicate columns cannot happen, but be safe
                out = np.ones((len(selections), part.n_rows), dtype=bool)
            return list(out)
    return [encoded_mask(part, s) for s in selections]


# Late-materialized partials -------------------------------------------------
_UNRESOLVED = object()  # sentinel: the caller did not resolve the columns


def aggregate_table(part: ColumnarPartition, columns) -> Table:
    """The decoded columns an aggregate reads, for its partial.

    ``columns`` is the aggregate's :func:`aggregate_columns`: a cached
    scratch of just those (``decode()`` arrays bit for bit, so a partial
    over it equals the row path's), or the full decode when they are not
    statically known.  Raw columns decode for free and every decode is
    cached on the partition, so a batched wave pays the dictionary/run
    expansion once, not once per query.
    """
    if columns is None:
        return part.to_table()
    return part.scratch_table(columns)


def columnar_partial(
    part: ColumnarPartition,
    selection: Selection,
    aggregate: Aggregate,
    conjuncts: Optional[Conjuncts] = None,
    columns=_UNRESOLVED,
):
    """One partition's partial: encoded predicate + late materialization.

    From :func:`selected_rows` when a selective raw conjunct drives,
    from the full encoded mask otherwise; the two are bitwise equal.
    ``conjuncts`` and ``columns`` are the per-query resolutions
    (:func:`range_conjuncts`, :func:`aggregate_columns`), when known.
    """
    if conjuncts is None:
        conjuncts = range_conjuncts(selection)
    if columns is _UNRESOLVED:
        columns = aggregate_columns(aggregate)
    table = aggregate_table(part, columns)
    if conjuncts is not None:
        rows = selected_rows(part, conjuncts)
        if rows is not None:
            return aggregate.partial_from_rows(table, rows)
    return aggregate.partial_from_mask(
        table, encoded_mask(part, selection, conjuncts)
    )
