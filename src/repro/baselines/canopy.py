"""Data-Canopy-like segment-statistics cache [20].

Data Canopy caches basic statistical aggregates of data *segments* so that
repeated exploratory statistics recombine cached pieces instead of
re-scanning.  Here segments are cells of a uniform grid over the queried
dimensions.  Per cell the cache holds the sufficient statistics of every
numeric column (count, sum, sum-of-squares, cross-products) plus the row
locations, so that

* cells *fully inside* a range query are answered from cached statistics;
* *boundary* cells are resolved by surgically reading just their rows.

Behaviourally this reproduces both Data Canopy's strength (repeat and
overlapping queries get dramatically cheaper) and the weakness the paper
cites: "the storage required ... can grow prohibitively large" — the cache
footprint grows with every new region touched, and "such efforts typically
only benefit previously seen queries."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.errors import StorageError
from repro.common.validation import require
from repro.bigdataless.index import group_rows_by_cell
from repro.cluster.storage import DistributedStore
from repro.engine.coordinator import CoordinatorEngine
from repro.engine.specs import GridAssignSpec
from repro.faults.degraded import UnknownChunk, build_degraded_answer
from repro.queries.query import AnalyticsQuery, Answer
from repro.queries.selections import RangeSelection

_STAT_BYTES_PER_COLUMN = 3 * 8  # count, sum, sum_sq per cached column
_ROWREF_BYTES = 12  # (partition, row) reference


class SegmentStatsCache:
    """Grid-cell statistics cache over one stored table."""

    def __init__(
        self,
        store: DistributedStore,
        table_name: str,
        grid_columns: Sequence[str],
        cells_per_dim: int = 32,
        failure_mode: str = "fail",
    ) -> None:
        require(cells_per_dim >= 2, "cells_per_dim must be >= 2")
        require(
            failure_mode in ("fail", "degrade"),
            f"unknown failure_mode {failure_mode!r}",
        )
        self.store = store
        self.table_name = table_name
        self.failure_mode = failure_mode
        self.grid_columns = tuple(grid_columns)
        self.cells_per_dim = cells_per_dim
        self.coordinator = CoordinatorEngine(store)
        stored = store.table(table_name)
        full = stored.full_table()
        mats = full.matrix(self.grid_columns)
        self._lows = mats.min(axis=0)
        self._highs = mats.max(axis=0)
        span = self._highs - self._lows
        span[span == 0.0] = 1.0
        self._span = span
        # cell key -> {column: (count, sum, sum_sq)}
        self._stats: Dict[Tuple[int, ...], Dict[str, Tuple[float, float, float]]] = {}
        # cell key -> [(partition_index, row-index array), ...] with one
        # ascending run per partition that has rows in the cell.
        self._rows: Dict[Tuple[int, ...], List[Tuple[int, np.ndarray]]] = {}
        self._directory_built = False
        self.hits = 0
        self.misses = 0

    # Cache state ----------------------------------------------------------
    def state_bytes(self) -> int:
        """Cache footprint: cached statistics plus the row directory."""
        stats = sum(
            len(cols) * _STAT_BYTES_PER_COLUMN for cols in self._stats.values()
        )
        rows = sum(
            int(run.size) * _ROWREF_BYTES
            for refs in self._rows.values()
            for _, run in refs
        )
        return stats + rows

    @property
    def n_cached_cells(self) -> int:
        return len(self._stats)

    # Query answering -------------------------------------------------------
    def execute(self, query: AnalyticsQuery) -> Tuple[Answer, CostReport]:
        """Exact range-aggregate from cached cells + boundary row reads.

        The first query over a region pays (a) a one-time directory build
        (full scan, amortised across all future queries) and (b) cell-stat
        materialisation for the cells it covers.  Later queries reuse them.

        Under fault injection reads go through the coordinator's failover
        policy.  With ``failure_mode="degrade"``, rows that cannot be
        reached from any replica are dropped from the value and accounted
        as unknown chunks in a returned
        :class:`~repro.faults.DegradedAnswer`; partial cell reads are
        never cached.  The one-time directory build cannot degrade — it
        needs every row's location — so a partition lost during the build
        always raises :class:`~repro.common.errors.PartitionLostError`.
        """
        selection = query.selection
        require(
            isinstance(selection, RangeSelection),
            "SegmentStatsCache answers range selections only",
        )
        faults = self.store.faults
        degrade = (
            faults is not None and faults.active and self.failure_mode == "degrade"
        )
        meter = CostMeter()
        if not self._directory_built:
            self._build_directory(meter)
        inner, boundary = self._classify_cells(selection)
        partials = []
        unknown: List[UnknownChunk] = []
        lost_partitions: set = set()
        # Fully covered cells: cached statistics (materialise on miss).
        for key in inner:
            stats = self._stats.get(key)
            if stats is None:
                self.misses += 1
                if degrade:
                    cell_lost: List[Tuple[int, int]] = []
                    stats = self._materialise_cell(key, meter, lost=cell_lost)
                    if cell_lost:
                        lost_partitions.update(p for p, _ in cell_lost)
                        unknown.append(
                            UnknownChunk(
                                n_rows=sum(n for _, n in cell_lost),
                                stats=self._cell_box(key),
                            )
                        )
                else:
                    stats = self._materialise_cell(key, meter)
            else:
                self.hits += 1
            partials.append(self._stats_to_partial(query, stats))
        # Boundary cells: surgical reads of their rows, filter exactly.
        rows_by_partition = self._fetch_plan(boundary)
        if rows_by_partition:
            stored = self.store.table(self.table_name)
            # The fetched rows are filtered by the selection below, so
            # zone-map pruning of the fetch plan is answer-preserving.
            boundary_lost: List[Tuple[int, int]] = []
            data, _ = self.coordinator.fetch_rows(
                stored,
                rows_by_partition,
                meter,
                selection=selection,
                on_lost="skip" if degrade else "raise",
                lost=boundary_lost,
            )
            for part_idx, n_rows in boundary_lost:
                lost_partitions.add(part_idx)
                unknown.append(self._unknown_chunk(part_idx, n_rows))
            selected = data.select(selection.mask(data))
            partials.append(query.aggregate.partial(selected))
        answer = query.aggregate.merge(partials)
        if degrade and lost_partitions:
            answer = build_degraded_answer(
                query.aggregate,
                selection,
                answer,
                unknown,
                lost_partitions=sorted(lost_partitions),
                unknown_partitions=sorted(lost_partitions),
                total_rows=self.store.table(self.table_name).n_rows,
            )
        return answer, meter.freeze()

    # Internals -------------------------------------------------------------
    def _build_directory(self, meter: CostMeter) -> None:
        """One-time full scan building the cell -> rows directory.

        The directory must locate *every* row, so under faults the scan
        retries/fails over per partition and a partition with no live
        replica propagates :class:`PartitionLostError` — even in degrade
        mode, where a silently incomplete directory would corrupt every
        later answer.
        """
        stored = self.store.table(self.table_name)
        faults = self.store.faults
        faulty = faults is not None and faults.active
        assign = GridAssignSpec(
            self.grid_columns, self._lows, self._span, self.cells_per_dim
        )
        for part_idx, partition in enumerate(stored.partitions):
            if faulty:
                data, node, extra = self.coordinator.failover.read_partition(
                    self.store,
                    partition,
                    meter,
                    requester=self.coordinator.coordinator,
                    obs=self.coordinator.observer,
                )
                meter.advance(
                    extra
                    + data.n_bytes
                    * self.store.read_slowdown(node)
                    / meter.rates.disk_bytes_per_sec
                )
            else:
                data = self.store.read_partition(partition, meter)
                meter.advance(data.n_bytes / meter.rates.disk_bytes_per_sec)
            keys, segments, _ = group_rows_by_cell(
                assign(data), self.cells_per_dim
            )
            for key, run in zip(keys, segments):
                self._rows.setdefault(key, []).append((part_idx, run))
        self._directory_built = True

    def _fetch_plan(self, keys) -> Dict[int, np.ndarray]:
        """Row-fetch plan for ``keys``: partition -> row-index array.

        Runs are concatenated in key order (each run is ascending within
        its partition), matching the order the old per-row directory
        produced so fetches stay byte-identical.
        """
        parts: Dict[int, List[np.ndarray]] = {}
        for key in keys:
            for part_idx, run in self._rows.get(key, ()):
                parts.setdefault(part_idx, []).append(run)
        return {
            part_idx: (runs[0] if len(runs) == 1 else np.concatenate(runs))
            for part_idx, runs in parts.items()
        }

    def _classify_cells(self, selection: RangeSelection):
        """Cell keys fully inside vs partially overlapping the query box."""
        lo_cell = np.clip(
            ((selection.lows - self._lows) / self._span * self.cells_per_dim).astype(int),
            0,
            self.cells_per_dim - 1,
        )
        hi_cell = np.clip(
            ((selection.highs - self._lows) / self._span * self.cells_per_dim).astype(int),
            0,
            self.cells_per_dim - 1,
        )
        inner: List[Tuple[int, ...]] = []
        boundary: List[Tuple[int, ...]] = []
        ranges = [range(lo, hi + 1) for lo, hi in zip(lo_cell, hi_cell)]
        for key in _product(ranges):
            cell_lo = self._lows + np.asarray(key) / self.cells_per_dim * self._span
            cell_hi = self._lows + (np.asarray(key) + 1) / self.cells_per_dim * self._span
            if np.all(cell_lo >= selection.lows) and np.all(cell_hi <= selection.highs):
                inner.append(key)
            else:
                boundary.append(key)
        return inner, boundary

    def _materialise_cell(
        self,
        key: Tuple[int, ...],
        meter: CostMeter,
        lost: Optional[List[Tuple[int, int]]] = None,
    ):
        """Read the cell's rows once and cache their sufficient statistics.

        With ``lost`` (degrade mode) unreachable partitions are skipped
        and reported there; statistics over a *partial* cell read are
        returned for this answer but never cached — the cache only ever
        holds complete cells.
        """
        rows_by_partition = self._fetch_plan((key,))
        stats: Dict[str, Tuple[float, float, float]] = {}
        if rows_by_partition:
            stored = self.store.table(self.table_name)
            data, _ = self.coordinator.fetch_rows(
                stored,
                rows_by_partition,
                meter,
                on_lost="raise" if lost is None else "skip",
                lost=lost,
            )
            for column in data.column_names:
                col = data.column(column).astype(float)
                stats[column] = (
                    float(col.shape[0]),
                    float(col.sum()),
                    float((col**2).sum()),
                )
        else:
            stats = {}
        if lost:
            return stats
        self._stats[key] = stats
        return stats

    def _cell_box(self, key: Tuple[int, ...]) -> Dict[str, Tuple[float, float]]:
        """Grid-column value bounds of one cell (for unknown chunks)."""
        lo = self._lows + np.asarray(key) / self.cells_per_dim * self._span
        hi = self._lows + (np.asarray(key) + 1) / self.cells_per_dim * self._span
        return {
            column: (float(lo[i]), float(hi[i]))
            for i, column in enumerate(self.grid_columns)
        }

    def _unknown_chunk(self, part_idx: int, n_rows: int) -> UnknownChunk:
        """Unknown chunk for ``n_rows`` unreachable rows of one partition,
        bounded by the partition's zone map when one is available."""
        stats: Dict[str, Tuple[float, float]] = {}
        try:
            synopses = self.store.synopses(self.table_name)
        except StorageError:
            synopses = []
        if 0 <= part_idx < len(synopses):
            synopsis = synopses[part_idx]
            stats = {
                name: (s.minimum, s.maximum)
                for name, s in synopsis.columns.items()
            }
        return UnknownChunk(n_rows=n_rows, stats=stats)

    def _stats_to_partial(self, query: AnalyticsQuery, stats):
        """Convert cached cell statistics into the aggregate's partial form."""
        name = query.aggregate.name
        if not stats:
            count = 0.0
            moments = (0.0, 0.0, 0.0)
        else:
            count = next(iter(stats.values()))[0]
        if name.startswith("count"):
            return count
        column = getattr(query.aggregate, "column", None)
        moments = stats.get(column, (0.0, 0.0, 0.0)) if stats else (0.0, 0.0, 0.0)
        if name.startswith("sum"):
            return moments[1]
        if name.startswith("mean"):
            return (moments[1], int(moments[0]))
        if name.startswith("std"):
            return (moments[1], moments[2], int(moments[0]))
        raise NotImplementedError(
            f"SegmentStatsCache supports count/sum/mean/std, not {name}"
        )


def _product(ranges):
    """Cartesian product of index ranges as tuples (tiny itertools.product)."""
    if not ranges:
        yield ()
        return
    first, *rest = ranges
    for head in first:
        for tail in _product(rest):
            yield (head, *tail)
