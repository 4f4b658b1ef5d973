"""The engines' partition-level kernels.

Each is a callable over one partition payload and nothing else: pure
compute, no charging, no fault draws, no tracing.  The engines call them
and then replay every charge in partition order themselves (see DESIGN,
"Why scans run inline") — which is what lets a shared pass compute once
and bill every job as if it had scanned alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.cluster.columnar import ColumnarPartition, in_range
from repro.engine.colscan import (
    aggregate_columns,
    aggregate_table,
    columnar_partial,
    encoded_batch_masks,
    range_conjuncts,
)
from repro.queries.selections import batch_masks

__all__ = [
    "QueryPartialSpec",
    "BatchPartialSpec",
    "RowTakeSpec",
    "GridAssignSpec",
]


@dataclass(frozen=True)
class QueryPartialSpec:
    """Single-query map kernel: selection mask + aggregate partial.

    Mirrors ``ExactEngine._job_fns``'s historical closure exactly: the
    encoded path on columnar partitions, the fused mask/partial row path
    otherwise.  Returns the map-output pair list the reducer expects.
    A range selection's bounds (as Python floats) and the aggregate's
    column set are resolved once here, not once per partition.
    """

    selection: Any
    aggregate: Any
    conjuncts: Any = field(init=False, repr=False, compare=False)
    columns: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "conjuncts", range_conjuncts(self.selection))
        object.__setattr__(self, "columns", aggregate_columns(self.aggregate))

    def __call__(self, partition) -> List[Tuple[int, Any]]:
        if isinstance(partition, ColumnarPartition):
            # Encoded predicate + late materialization: bitwise equal
            # to the row path below by colscan's contract.
            return [
                (
                    0,
                    columnar_partial(
                        partition,
                        self.selection,
                        self.aggregate,
                        self.conjuncts,
                        self.columns,
                    ),
                )
            ]
        # Row path: mask + partial in fused numpy passes —
        # partial_from_mask is documented to equal
        # partial(partition.select(mask)) without materializing the
        # selected rows.
        return [
            (
                0,
                self.aggregate.partial_from_mask(
                    partition,
                    _span_mask(partition, self.selection, self.conjuncts),
                ),
            )
        ]


def _span_mask(table, selection, conjuncts=None) -> np.ndarray:
    """``selection.mask(table)``, bit for bit, comparing only rows that
    a sorted column cannot rule out by position.

    Each range conjunct over a column the table knows to be sorted
    becomes two binary searches — ``left`` for the low bound and
    ``right`` for the high one put ties and ``-0.0``/``0.0`` where
    ``>=``/``<=`` put them — and their intersection one span
    ``[start, stop)``; the other conjuncts are compared over that span
    only and every row outside it stays False.  A NaN bound selects
    nothing, which the comparison already says.  With no sorted column
    this is the plain mask.  ``conjuncts`` is
    :func:`~repro.engine.colscan.range_conjuncts` when the caller
    resolved it.
    """
    if conjuncts is None:
        conjuncts = range_conjuncts(selection)
        if conjuncts is None:
            return selection.mask(table)
    start, stop = 0, table.n_rows
    rest = []
    for conjunct in conjuncts:
        name, lo, hi = conjunct
        if lo == lo and hi == hi and table.is_sorted(name):
            col = table.column(name)
            start = max(start, int(col.searchsorted(lo, "left")))
            stop = min(stop, int(col.searchsorted(hi, "right")))
        else:
            rest.append(conjunct)
    if len(rest) == len(conjuncts):
        return selection.mask(table)
    mask = np.zeros(table.n_rows, dtype=bool)
    span = mask[start:stop]
    span[:] = True
    for name, lo, hi in rest:
        span &= in_range(table.column(name)[start:stop], lo, hi)
    return mask


class BatchPartialSpec:
    """Shared batch-pass kernel: broadcast masks, per-job partials.

    ``ExactEngine.execute_many``'s ``multi_map_fn``.  Each aggregate's
    column set is computed once here, and its decode target (full decode
    or the cached scratch of its own columns) per call from that.
    """

    def __init__(self, selections: Sequence[Any], aggregates: Sequence[Any]) -> None:
        self.selections = tuple(selections)
        self.aggregates = tuple(aggregates)
        self.aggregate_cols = tuple(aggregate_columns(a) for a in aggregates)

    def __call__(self, partition, active=None) -> List[List[Tuple[int, Any]]]:
        if active is None:
            active = range(len(self.selections))
        if isinstance(partition, ColumnarPartition):
            # Encoded shared pass: one broadcast comparison per column
            # over the encoded domain, then each job's late-materialized
            # partial.
            masks = encoded_batch_masks(
                [self.selections[j] for j in active], partition
            )
            return [
                [
                    (
                        0,
                        self.aggregates[j].partial_from_mask(
                            aggregate_table(partition, self.aggregate_cols[j]),
                            mask,
                        ),
                    )
                ]
                for j, mask in zip(active, masks)
            ]
        masks = batch_masks([self.selections[j] for j in active], partition)
        return [
            [(0, self.aggregates[j].partial_from_mask(partition, mask))]
            for j, mask in zip(active, masks)
        ]


@dataclass(frozen=True)
class RowTakeSpec:
    """Row-materialisation kernel for the coordinator's fetch cache.

    ``chunks`` are the per-plan index arrays requesting rows of one
    partition; the kernel unions them and gathers the rows through
    ``TablePartition.take`` (encoded columns first, row store otherwise).
    """

    chunks: Tuple[np.ndarray, ...]

    def __call__(self, partition) -> Tuple[np.ndarray, Any]:
        all_idx = np.unique(np.concatenate(self.chunks))
        return all_idx, partition.take(all_idx)


@dataclass(frozen=True, eq=False)
class GridAssignSpec:
    """Grid-cell assignment kernel for canopy/grid directory builds:
    scales each row's grid columns into cell coordinates, clipped to the
    grid.
    """

    grid_columns: Tuple[str, ...]
    lows: np.ndarray
    span: np.ndarray
    cells_per_dim: int

    def __call__(self, data) -> np.ndarray:
        mats = data.matrix(list(self.grid_columns))
        scaled = (mats - self.lows) / self.span * self.cells_per_dim
        return np.clip(scaled.astype(int), 0, self.cells_per_dim - 1)
