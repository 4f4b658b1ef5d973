"""Encoded-column scan kernels: predicates + late materialization.

The row-major exact path reads a whole partition, builds a selection
mask, and feeds masked columns to the aggregate.  This module is the
columnar twin: selection bounds are evaluated *directly on the encoded
columns* (dictionary-domain comparison, run-level comparison + expansion,
vectorized compares on raw buffers — one fused numpy pass per column, no
per-row python), and only the surviving rows of the columns the
aggregate actually reads are ever decoded into :class:`Table` form.

Bitwise identity with the row path is the contract, not an aspiration:

* every encoded range mask equals ``RangeSelection.mask`` on the decoded
  table (floating-point comparisons are exact, and distributing a
  comparison over a dictionary/run domain is a pure re-association of
  *which* rows are compared, never of the comparison itself);
* ``partial_from_encoded`` builds the masked mini-table from the same
  ``decode()[mask]`` bit patterns the row path masks, then calls the
  aggregate's own ``partial`` — the documented equal of
  ``partial_from_mask`` — so partials, shuffle payload estimates, and
  merged answers are identical at any worker count.

Pushdown is *conservative*: only selection and aggregate types whose
column sets are statically known participate (:func:`scan_columns`
returns None otherwise), and unknown shapes fall back to a full decode,
which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.columnar import ColumnarPartition
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
def encoded_mask(part: ColumnarPartition, selection: Selection) -> np.ndarray:
    """``selection.mask`` evaluated on encoded columns, bitwise equal.

    Range selections run per-encoding kernels (dictionary-domain
    comparison, run skipping, fused raw compares) for the *residual*
    conjuncts only: one whose bounds contain the column's zone selects
    every row (a proof that fails on NaN, see ``zone_within``), so its
    all-true mask is neither built nor and-ed in.  Other selections
    decode just their predicate columns into a scratch table — column
    pruning still applies, only the late-materialization step is lost.
    """
    if type(selection) is RangeSelection:
        out = None
        for name, lo, hi in zip(selection.columns, selection.lows, selection.highs):
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
_UNRESOLVED = object()  # sentinel: caller did not precompute the columns


def partial_from_encoded(
    part: ColumnarPartition,
    aggregate: Aggregate,
    mask: np.ndarray,
    columns=_UNRESOLVED,
):
    """The aggregate's partition partial from an encoded mask.

    Decodes only the surviving rows of the aggregate's own columns and
    feeds them to ``aggregate.partial`` — bitwise equal to
    ``aggregate.partial_from_mask(decoded_partition, mask)`` because the
    masked gathers reproduce ``decode()[mask]`` exactly and
    ``partial_from_mask`` is documented to equal
    ``partial(table.select(mask))``.

    Batched callers that resolve :func:`aggregate_columns` once per job
    pass the result as ``columns`` to skip re-dispatching it for every
    (job, partition) pair on the shared-pass hot path.
    """
    if columns is _UNRESOLVED:
        columns = aggregate_columns(aggregate)
    if columns is None:
        # Unknown aggregate shape: full decode, then the row-path partial.
        return aggregate.partial_from_mask(part.to_table(), mask)
    if not columns:
        # Count is the only column-less aggregate; its partial_from_mask
        # is float(np.count_nonzero(mask)) regardless of the table.
        return float(np.count_nonzero(mask))
    # Gather survivors from the partition's cached decoded scratch of
    # just these columns: ``partial_from_mask`` is documented to equal
    # ``partial(table.select(mask))``, the scratch holds ``decode()``
    # arrays bit for bit, and the decode itself amortizes to one pass
    # per column per partition (zero for raw columns) across a wave.
    return aggregate.partial_from_mask(part.scratch_table(columns), mask)


def columnar_partial(
    part: ColumnarPartition, selection: Selection, aggregate: Aggregate
):
    """One partition's partial: encoded predicate + late materialization."""
    return partial_from_encoded(part, aggregate, encoded_mask(part, selection))
