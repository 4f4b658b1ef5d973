"""Zone-map partition synopses: per-partition statistical indexes (P3).

The paper's P3 argues that lightweight *statistical indexes* let a
coordinator touch only the data that can matter.  A
:class:`PartitionSynopsis` is the classic small-footprint realization:
for every partition, per column, the exact ``min``/``max`` (the zone
map) plus the row count and the sufficient sums needed to answer
decomposable aggregates without reading the rows.

Two properties make the synopses usable for *exact* (not approximate)
pruning:

* **Zone maps are exact.** ``minimum``/``maximum`` are the bitwise
  ``col.min()``/``col.max()`` of the stored column, so the disjointness
  test ``maximum < lo or minimum > hi`` against a query's bounding box
  uses exact float comparisons — a pruned partition provably contains no
  matching row, and skipping it leaves the answer bit-identical.  One
  NaN row makes both NaN; the disjointness test above and the cover
  test :func:`zone_within` are written so that every comparison
  involving a NaN *fails the claim*, and such a partition is simply
  scanned.
* **Sums are scan-identical.** ``total``/``ftotal``/``fsumsq`` are
  computed with the *same numpy expressions* the aggregates' partial
  paths use over the same array, so a partition *fully covered* by a
  range selection can short-circuit COUNT/SUM/AVG/MIN/MAX/STD/VAR from
  the synopsis and still merge to the bitwise-identical answer.  (This
  is also why appends recompute the sums over the grown column instead
  of adding the two partial sums: numpy's pairwise summation is not
  split-associative, and the contract here is bitwise equality with a
  fresh scan, not approximate equality.)

Synopses are built by :meth:`DistributedStore.put_table` and maintained
by ``append_rows``/``delete_rows``; in a real BDAS they correspond to
block-level statistics written at ingest (ORC/Parquet footers, HBase
region metadata), which is why the build itself is not metered as a
query-time scan.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.tabular import Table

# Serialized footprint of one column's entry: min, max, total, ftotal,
# fsumsq (5 doubles).  The row count is shared across columns.
_STATS_BYTES_PER_COLUMN = 5 * 8
_ROWCOUNT_BYTES = 8


def zone_within(minimum, maximum, lo, hi) -> bool:
    """True iff every value of a column with this zone lies in ``[lo, hi]``.

    A proof, not a failed refutation: a NaN zone bound (the column holds
    a NaN row, which no range selects) or a NaN query bound makes a
    comparison False and therefore the claim False.  An empty column's
    zone is ``(inf, -inf)``, which lies within any box.
    """
    return bool(lo <= minimum and maximum <= hi)


@dataclass(frozen=True)
class ColumnStats:
    """Exact zone-map statistics of one column of one partition.

    ``total`` is the raw-dtype sum (the expression ``Sum``/``Mean``
    partials evaluate); ``ftotal``/``fsumsq`` are the float-cast sums
    (the expression ``Std``/``Variance`` partials evaluate).  For float64
    columns the two totals coincide bitwise; for integer columns they can
    round differently, so both are kept.
    """

    minimum: float
    maximum: float
    total: float
    ftotal: float
    fsumsq: float

    @classmethod
    def from_column(cls, col: np.ndarray) -> "ColumnStats":
        if col.shape[0] == 0:
            return cls(float("inf"), float("-inf"), 0.0, 0.0, 0.0)
        return cls(float(col.min()), float(col.max()), *_sums(col))


def _sums(col: np.ndarray) -> Tuple[float, float, float]:
    """``(total, ftotal, fsumsq)`` of a column, scan-identical.

    A float64 column *is* its float cast, so the cast (a full copy) and
    the second sum are skipped: ``ftotal`` is bitwise ``total``.
    """
    total = float(col.sum())
    if col.dtype == np.float64:
        return total, total, float((col**2).sum())
    colf = col.astype(float)
    return total, float(colf.sum()), float((colf**2).sum())


class PartitionSynopsis:
    """Per-column exact statistics of one stored partition.

    ``encodings`` records the partition's columnar encoding decisions
    (``{column: kind}``, see :mod:`repro.cluster.columnar`) when the
    table is stored with ``layout="column"``; row-major partitions leave
    it None.  The store keeps it in sync on ingest and on
    ``append_rows``/``delete_rows`` re-encodes.
    """

    __slots__ = ("n_rows", "columns", "encodings")

    def __init__(self, n_rows: int, columns: Dict[str, ColumnStats]) -> None:
        self.n_rows = int(n_rows)
        self.columns = columns
        self.encodings = None

    @classmethod
    def from_table(cls, table: Table) -> "PartitionSynopsis":
        return cls(
            n_rows=table.n_rows,
            columns={
                name: ColumnStats.from_column(table.column(name))
                for name in table.column_names
            },
        )

    @property
    def n_bytes(self) -> int:
        """Serialized footprint (what a synopsis consultation reads)."""
        return _ROWCOUNT_BYTES + len(self.columns) * _STATS_BYTES_PER_COLUMN

    def stats(self, column: str) -> ColumnStats:
        return self.columns[column]

    # Zone-map tests --------------------------------------------------------
    def disjoint(self, columns: Sequence[str], lows, highs) -> bool:
        """True iff no stored row can fall inside the given box.

        Exact float comparisons against the stored minima/maxima: a True
        result is a proof, so skipping the partition is loss-free.  An
        empty partition is disjoint from every box.  Unknown columns and
        NaN-bearing columns make the test conservatively False.
        """
        if self.n_rows == 0:
            return True
        for name, lo, hi in zip(columns, lows, highs):
            stats = self.columns.get(name)
            if stats is None:
                continue
            if stats.maximum < lo or stats.minimum > hi:
                return True
        return False

    def covered_by(self, columns: Sequence[str], lows, highs) -> bool:
        """True iff every stored row falls inside the given box.

        Only meaningful for selections whose bounding box *is* their
        semantics (``Selection.box_is_exact``); then a covered partition
        selects all of its rows and decomposable aggregates can be
        answered from the synopsis.  A column holding a NaN row is never
        covered: no range selects that row.
        """
        if self.n_rows == 0:
            return True
        for name, lo, hi in zip(columns, lows, highs):
            stats = self.columns.get(name)
            if stats is None:
                return False
            if not zone_within(stats.minimum, stats.maximum, lo, hi):
                return False
        return True

    # Maintenance -----------------------------------------------------------
    def appended(self, piece: Table, grown: Table) -> "PartitionSynopsis":
        """The synopsis after ``piece`` was appended, yielding ``grown``.

        Minima/maxima and the row count merge incrementally (exactly —
        ``min`` over a concatenation is the ``min`` of the mins, NaN
        included: ``np.minimum`` propagates it, python's ``min`` would
        drop it depending on argument order); the
        sums are recomputed over the grown columns because pairwise float
        summation is not split-associative and the short-circuit contract
        is bitwise equality with a fresh scan.
        """
        columns: Dict[str, ColumnStats] = {}
        for name, old in self.columns.items():
            col = grown.column(name)
            piece_col = piece.column(name)
            if piece_col.shape[0] == 0:
                columns[name] = old
                continue
            columns[name] = ColumnStats(
                float(np.minimum(old.minimum, piece_col.min())),
                float(np.maximum(old.maximum, piece_col.max())),
                *_sums(col),
            )
        return PartitionSynopsis(n_rows=grown.n_rows, columns=columns)

    def __repr__(self) -> str:
        return (
            f"PartitionSynopsis(rows={self.n_rows}, "
            f"columns={list(self.columns)})"
        )


def estimate_selectivity(
    synopses: Sequence[PartitionSynopsis], columns: Sequence[str], lows, highs
) -> float:
    """Estimated fraction of stored rows inside the box, from synopses only.

    Covered partitions contribute all their rows, disjoint ones zero,
    and partially overlapping ones the product of per-column overlap
    fractions under a uniformity assumption — the data-less selectivity
    feature the learned optimizer consumes (no scan required).
    """
    lows = np.asarray(lows, dtype=float).ravel()
    highs = np.asarray(highs, dtype=float).ravel()
    total_rows = sum(s.n_rows for s in synopses)
    if total_rows == 0:
        return 0.0
    matching = 0.0
    for synopsis in synopses:
        if synopsis.disjoint(columns, lows, highs):
            continue
        if synopsis.covered_by(columns, lows, highs):
            matching += synopsis.n_rows
            continue
        fraction = 1.0
        for name, lo, hi in zip(columns, lows, highs):
            stats = synopsis.columns.get(name)
            if stats is None:
                continue
            span = stats.maximum - stats.minimum
            if span <= 0.0:
                continue
            overlap = min(hi, stats.maximum) - max(lo, stats.minimum)
            fraction *= min(1.0, max(0.0, overlap / span))
        matching += fraction * synopsis.n_rows
    return float(min(1.0, matching / total_rows))


def synopses_consistent(
    synopses: Sequence[PartitionSynopsis], tables: Sequence[Table]
) -> bool:
    """True iff each synopsis bitwise matches a fresh build of its table."""
    if len(synopses) != len(tables):
        return False
    for synopsis, table in zip(synopses, tables):
        fresh = PartitionSynopsis.from_table(table)
        if synopsis.n_rows != fresh.n_rows:
            return False
        if set(synopsis.columns) != set(fresh.columns):
            return False
        for name, stats in fresh.columns.items():
            # NaN statistics (a NaN row) match themselves.
            if not np.array_equal(
                astuple(synopsis.columns[name]), astuple(stats), equal_nan=True
            ):
                return False
    return True
