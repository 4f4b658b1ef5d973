"""Distributed multidimensional indexes (RT2.1, objective O4).

A :class:`DistributedGridIndex` is the "statistical index structure" the
big-data-less operators rely on: a uniform grid over selected dimensions
where each cell records *statistics* (count, per-column sums) and the
*locations* (partition, row) of its rows.  The coordinator keeps the small
statistics table; row locations live with the data nodes.  Operators use
the statistics to decide which cells matter, then surgically read only
those cells' rows.

Index construction is an offline, one-off cost, metered separately so
experiments can report it (build once, amortise over the workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.validation import require
from repro.cluster.storage import DistributedStore, StoredTable
from repro.queries.selections import RadiusSelection

CellKey = Tuple[int, ...]

_CELL_STAT_BYTES = 8 * 4  # count + min/max id + reserved
_ROWREF_BYTES = 12


@dataclass
class CellStats:
    """Statistics the coordinator keeps per non-empty grid cell."""

    count: int = 0
    sums: Optional[np.ndarray] = None

    def add(self, values: np.ndarray) -> None:
        self.count += values.shape[0]
        total = values.sum(axis=0)
        self.sums = total if self.sums is None else self.sums + total


def group_rows_by_cell(
    cells: np.ndarray, cells_per_dim: int
) -> Tuple[List[CellKey], List[np.ndarray], np.ndarray]:
    """Group row indices by grid cell in one vectorized pass.

    Returns ``(keys, segments, group_of)``: cell keys in first-appearance
    order (matching the historical per-row ``setdefault`` loop), the
    ascending row indices of each key, and the per-row group index into
    ``keys``.  Key elements are the cell array's scalars, exactly what
    ``map(tuple, cells)`` produced row by row.
    """
    n = int(cells.shape[0])
    d = int(cells.shape[1])
    if n == 0:
        return [], [], np.empty(0, dtype=np.int64)
    ids = np.ravel_multi_index(tuple(cells.T), dims=(cells_per_dim,) * d)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    # np.unique orders groups by id value; re-rank them by first
    # appearance so iteration order matches the old insertion order.
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    group_of = rank[np.asarray(inverse).ravel()]
    counts = np.bincount(group_of, minlength=order.shape[0])
    # Stable sort by group keeps rows ascending within each group.
    row_order = np.argsort(group_of, kind="stable")
    segments = np.split(row_order, np.cumsum(counts)[:-1])
    keys = [tuple(cells[first[g]]) for g in order]
    return keys, segments, group_of


def split_rows_by_partition(
    rows: np.ndarray, starts: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Split ascending global row indices into (partition, local rows) runs.

    ``starts`` holds each partition's first global row (cumulative row
    counts, length ``n_partitions + 1``).  Ascending input means each
    partition's rows form one contiguous run, preserved in order.
    """
    part_of = np.searchsorted(starts, rows, side="right") - 1
    cuts = np.flatnonzero(part_of[1:] != part_of[:-1]) + 1
    heads = np.concatenate(([0], cuts))
    return [
        (int(part_of[head]), piece - starts[part_of[head]])
        for head, piece in zip(heads, np.split(rows, cuts))
    ]


class DistributedGridIndex:
    """Uniform grid index over selected dimensions of a stored table."""

    def __init__(
        self,
        store: DistributedStore,
        table_name: str,
        columns: Sequence[str],
        cells_per_dim: int = 32,
    ) -> None:
        require(cells_per_dim >= 2, "cells_per_dim must be >= 2")
        self.store = store
        self.table_name = table_name
        self.columns = tuple(columns)
        self.cells_per_dim = cells_per_dim
        self._stats: Dict[CellKey, CellStats] = {}
        #: Per cell: (partition, ascending local row indices) runs, in
        #: partition order — the vectorized image of the historical
        #: per-row (partition, row) tuple list.
        self._rows: Dict[CellKey, List[Tuple[int, np.ndarray]]] = {}
        self._lows: Optional[np.ndarray] = None
        self._span: Optional[np.ndarray] = None
        self.build_report: Optional[CostReport] = None

    # Construction -----------------------------------------------------------
    def build(self) -> CostReport:
        """Scan the table once, populating cell stats and row directories.

        The charging loop stays per-partition (reads, CPU, index-byte
        placement — in partition order, exactly as before); the cell
        fold itself is one global vectorized pass, bitwise equal to the
        historical per-row loop (see :meth:`_ingest`).
        """
        meter = CostMeter()
        stored = self.store.table(self.table_name)
        bounds = self._compute_bounds(stored)
        self._lows, self._span = bounds
        slowest = 0.0
        per_part_points: List[np.ndarray] = []
        per_part_cells: List[np.ndarray] = []
        for partition in stored.partitions:
            data = self.store.read_partition(partition, meter)
            seconds = data.n_bytes / meter.rates.disk_bytes_per_sec
            seconds += meter.charge_cpu(partition.primary_node, data.n_bytes)
            slowest = max(slowest, seconds)
            points = data.matrix(self.columns)
            per_part_points.append(points)
            per_part_cells.append(self._cell_of(points))
            # The node keeps its share of the row directory.
            node = self.store.topology.node(partition.primary_node)
            node.add_index_bytes(data.n_rows * _ROWREF_BYTES)
        meter.advance(slowest)
        self._ingest(per_part_points, per_part_cells)
        self.build_report = meter.freeze()
        return self.build_report

    def _ingest(
        self,
        per_part_points: List[np.ndarray],
        per_part_cells: List[np.ndarray],
    ) -> None:
        """Vectorized cell fold over all partitions in global row order.

        Bitwise equality with the old per-row ``CellStats.add`` fold
        needs two properties: the accumulation must run over rows in
        the *global* (partition-major) order the loop used — so the
        grouping spans all partitions at once, never per-partition
        partials — and the accumulator must start at ``-0.0``, the
        additive identity under IEEE-754 (``-0.0 + x == x`` bitwise,
        including ``x = +0.0``; a ``0.0`` start would flip the sign of
        a cell whose rows sum to ``-0.0``).  ``np.add.at`` is unbuffered
        and applies in
        index order, i.e. it *is* the sequential left fold.
        """
        d = len(self.columns)
        all_points = (
            np.concatenate(per_part_points)
            if per_part_points
            else np.empty((0, d))
        )
        all_cells = (
            np.concatenate(per_part_cells)
            if per_part_cells
            else np.empty((0, d), dtype=int)
        )
        keys, segments, group_of = group_rows_by_cell(
            all_cells, self.cells_per_dim
        )
        if not keys:
            return
        sums = np.full((len(keys), d), -0.0, dtype=all_points.dtype)
        np.add.at(sums, group_of, all_points)
        starts = np.zeros(len(per_part_points) + 1, dtype=np.int64)
        np.cumsum([p.shape[0] for p in per_part_points], out=starts[1:])
        for g, (key, rows) in enumerate(zip(keys, segments)):
            self._stats[key] = CellStats(count=int(rows.size), sums=sums[g].copy())
            self._rows[key] = split_rows_by_partition(rows, starts)

    @property
    def is_built(self) -> bool:
        return self._lows is not None

    # Lookups -----------------------------------------------------------------
    def cells_for_box(self, lows, highs) -> List[CellKey]:
        """Non-empty cell keys intersecting the axis-aligned box."""
        self._require_built()
        lows = np.asarray(lows, dtype=float).ravel()
        highs = np.asarray(highs, dtype=float).ravel()
        lo_cell = self._clip_cell(lows)
        hi_cell = self._clip_cell(highs)
        keys: List[CellKey] = []
        for key in _iter_cells(lo_cell, hi_cell):
            if key in self._stats:
                keys.append(key)
        return keys

    def cells_for_selection(self, selection) -> List[CellKey]:
        """Non-empty cells a range/radius selection may touch."""
        lows, highs = selection.box()
        keys = self.cells_for_box(lows, highs)
        if isinstance(selection, RadiusSelection):
            keys = [
                key
                for key in keys
                if self._cell_box_distance(key, selection.center)
                <= selection.radius
            ]
        return keys

    def count_in_cells(self, keys: Iterable[CellKey]) -> int:
        return sum(self._stats[k].count for k in keys if k in self._stats)

    def rows_for_cells(
        self, keys: Iterable[CellKey]
    ) -> Dict[int, np.ndarray]:
        """{partition_index: row_indices} for the given cells.

        Row arrays concatenate per-cell runs in key order (ascending
        within each cell) — the exact order the historical per-row
        append produced, which downstream fetches materialise verbatim.
        """
        chunks: Dict[int, List[np.ndarray]] = {}
        for key in keys:
            for part_idx, rows in self._rows.get(key, ()):
                chunks.setdefault(part_idx, []).append(rows)
        return {
            part_idx: parts[0] if len(parts) == 1 else np.concatenate(parts)
            for part_idx, parts in chunks.items()
        }

    def density_histogram(self) -> Dict[CellKey, int]:
        """Cell -> count view (the statistical summary operators consult)."""
        self._require_built()
        return {key: stats.count for key, stats in self._stats.items()}

    def estimate_knn_radius(self, point, k: int, inflation: float = 1.5) -> float:
        """Histogram-driven search-radius estimate for a kNN query.

        Grows a cell-ring around the query point until the accumulated
        count reaches ``k``, then inflates the implied radius for safety —
        the radius-estimation idea behind coordinator-cohort kNN [33].
        """
        self._require_built()
        require(k >= 1, "k must be >= 1")
        point = np.asarray(point, dtype=float).ravel()
        center_cell = self._clip_cell(point)
        cell_width = float((self._span / self.cells_per_dim).max())
        d = len(self.columns)
        max_rings = self.cells_per_dim
        for ring in range(max_rings):
            lo = np.maximum(center_cell - ring, 0)
            hi = np.minimum(center_cell + ring, self.cells_per_dim - 1)
            accumulated = self.count_in_cells(_iter_cells(lo, hi))
            if accumulated >= k:
                # Assume roughly uniform density within the covered block
                # and shrink the radius to the ball expected to hold ~k
                # points; the operator's verification loop widens it again
                # if the estimate proves too tight, so this stays exact.
                block_radius = (ring + 1) * cell_width
                density_radius = block_radius * (k / accumulated) ** (1.0 / d)
                return max(density_radius, cell_width * 0.25) * inflation
        return float(np.linalg.norm(self._span))  # whole domain

    # Footprint ---------------------------------------------------------------
    def coordinator_state_bytes(self) -> int:
        """Bytes the coordinator holds (cell statistics only)."""
        per_cell = _CELL_STAT_BYTES + len(self.columns) * 8
        return len(self._stats) * per_cell

    def total_state_bytes(self) -> int:
        rows = (
            sum(
                int(run.size)
                for refs in self._rows.values()
                for _, run in refs
            )
            * _ROWREF_BYTES
        )
        return self.coordinator_state_bytes() + rows

    # Internals ---------------------------------------------------------------
    def _compute_bounds(self, stored: StoredTable):
        lows = None
        highs = None
        for partition in stored.partitions:
            points = partition.data.matrix(self.columns)
            if points.shape[0] == 0:
                continue
            p_lo, p_hi = points.min(axis=0), points.max(axis=0)
            lows = p_lo if lows is None else np.minimum(lows, p_lo)
            highs = p_hi if highs is None else np.maximum(highs, p_hi)
        require(lows is not None, f"table {self.table_name!r} is empty")
        span = highs - lows
        span[span == 0.0] = 1.0
        return lows, span

    def _cell_of(self, points: np.ndarray) -> np.ndarray:
        scaled = (points - self._lows) / self._span * self.cells_per_dim
        # Clip before the cast: a NaN coordinate (or NaN bounds) has no
        # integer value and files under cell 0 — where the bare cast put
        # it on x86, under a RuntimeWarning.
        scaled = np.nan_to_num(scaled, nan=0.0)
        return np.clip(scaled, 0, self.cells_per_dim - 1).astype(int)

    def _clip_cell(self, point: np.ndarray) -> np.ndarray:
        return self._cell_of(point)

    def _cell_box_distance(self, key: CellKey, point: np.ndarray) -> float:
        cell_lo = self._lows + np.asarray(key) / self.cells_per_dim * self._span
        cell_hi = (
            self._lows + (np.asarray(key) + 1) / self.cells_per_dim * self._span
        )
        below = np.maximum(cell_lo - point, 0.0)
        above = np.maximum(point - cell_hi, 0.0)
        gap = below + above
        return float(np.sqrt(gap @ gap))

    def _require_built(self) -> None:
        require(self.is_built, "index not built; call build() first")


def _iter_cells(lo_cell: np.ndarray, hi_cell: np.ndarray):
    """Iterate all integer cell keys in the inclusive hyper-rectangle."""
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(lo_cell, hi_cell)]
    if not ranges:
        return
    stack: List[CellKey] = [()]
    for r in ranges:
        stack = [key + (i,) for key in stack for i in r]
    yield from stack
