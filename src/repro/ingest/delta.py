"""In-memory delta partitions: the volatile half of base+delta storage.

A :class:`DeltaPartition` hangs off one
:class:`~repro.cluster.storage.TablePartition` while durable ingest is
enabled and accumulates the writes staged since that partition's last
compaction:

* ``rows`` — appended rows in arrival order (the memtable), grown in
  place with :meth:`Table.appended`: an append costs the rows it adds.
  Kept as a plain row-major :class:`Table`: deltas are small and
  short-lived, so encoding them would cost more than it saves.
* ``deleted_base`` — a boolean tombstone mask over the *base* image's
  rows (``n_deleted`` counts its set bits).  Deletes against rows still
  in the delta are applied eagerly (the memtable is
  mutable-by-replacement); deletes against the base are deferred to
  compaction.

The effective content of a partition is
``base[~deleted_base] ++ rows`` — element-identical to applying the
same writes synchronously, which is what makes compaction invisible to
query answers (numpy aggregates over element-equal arrays are bitwise
equal).

``version`` bumps on every mutation and keys the delta synopsis.
``shape_version`` moves only when rows *leave* (a delete that hit, or
``clear()``): while it stands still the effective content only grows
at its tail, so the partition extends its materialized view by
``rows[seen:]`` instead of rebuilding it (see
:meth:`~repro.cluster.storage.TablePartition.read_view`), and the
memtable's zone map (:class:`DeltaZone`) is extended by the same rows.
``last_lsn`` records the newest WAL record folded in, which becomes the
partition's ``applied_lsn`` checkpoint at compaction — the cursor that
makes WAL replay idempotent.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.validation import require
from repro.data.tabular import Table


def _extend_zone(zone: Tuple[float, float], col: np.ndarray) -> Tuple[float, float]:
    """``zone`` grown by the values of ``col`` (non-empty).

    ``np.minimum``/``np.maximum`` propagate a NaN from either side, as
    ``col.min()`` over the whole column would (python's ``min`` keeps or
    drops it by argument order).
    """
    return (
        float(np.minimum(zone[0], col.min())),
        float(np.maximum(zone[1], col.max())),
    )


class DeltaZone:
    """Zone map of one memtable version: row count, per-column min/max.

    No sums — a statistic that was never computed cannot be read.  A
    column's zone is folded when :meth:`disjoint` first names it and
    kept in ``_zones`` (``{column: (rows folded in, min, max)}``), which
    successive versions share while no row has left: each then folds
    only the rows appended since the column was last asked about.
    """

    __slots__ = ("rows", "_zones")

    def __init__(self, rows: Table, zones: Dict[str, Tuple[int, float, float]]):
        self.rows = rows
        self._zones = zones

    @property
    def n_rows(self) -> int:
        return self.rows.n_rows

    def zone(self, name: str) -> Tuple[float, float]:
        """``(min, max)`` of one column; ``(inf, -inf)`` when empty."""
        seen, low, high = self._zones.get(name, (0, float("inf"), float("-inf")))
        n_rows = self.rows.n_rows
        if seen < n_rows:
            low, high = _extend_zone((low, high), self.rows.column(name)[seen:])
            self._zones[name] = (n_rows, low, high)
        # (A zone folded past this version's rows bounds a superset of
        # them: still a proof when it says disjoint.)
        return low, high

    def disjoint(self, columns: Sequence[str], lows, highs) -> bool:
        """True iff no memtable row can fall inside the box — the test
        :meth:`PartitionSynopsis.disjoint` makes: exact comparisons,
        unknown and NaN-bearing columns conservatively not disjoint."""
        for name, lo, hi in zip(columns, lows, highs):
            if name not in self.rows:
                continue
            minimum, maximum = self.zone(name)
            if maximum < lo or minimum > hi:
                return True
        return False


class DeltaPartition:
    """Pending writes for one table partition (see module docstring)."""

    __slots__ = (
        "base_rows",
        "rows",
        "deleted_base",
        "n_deleted",
        "version",
        "shape_version",
        "first_lsn",
        "last_lsn",
        "_synopsis",
        "_synopsis_version",
        "_zones",
    )

    def __init__(self, base_rows: int) -> None:
        require(base_rows >= 0, f"base_rows must be >= 0, got {base_rows}")
        self.base_rows = base_rows
        self.rows: Optional[Table] = None
        self.deleted_base: Optional[np.ndarray] = None
        #: Base rows tombstoned for deletion at the next compaction.
        self.n_deleted = 0
        self.version = 0
        self.shape_version = 0
        self.first_lsn = 0
        self.last_lsn = 0
        self._synopsis: Optional[DeltaZone] = None
        self._synopsis_version = -1
        #: Column zones of ``rows``, dropped whenever a row leaves it.
        self._zones: Dict[str, Tuple[int, float, float]] = {}

    # State -----------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True iff the partition's effective content differs from base."""
        return self.n_rows > 0 or self.n_deleted > 0

    @property
    def n_rows(self) -> int:
        """Appended rows pending merge."""
        return self.rows.n_rows if self.rows is not None else 0

    @property
    def n_bytes(self) -> int:
        """Memtable footprint (tombstones are free: one bit of intent)."""
        return self.rows.n_bytes if self.rows is not None else 0

    @property
    def live_base_rows(self) -> int:
        return self.base_rows - self.n_deleted

    # Mutation --------------------------------------------------------------
    def append(
        self, piece: Table, lsn: int, start: int = 0, stop: Optional[int] = None
    ) -> None:
        """Fold rows ``[start, stop)`` of ``piece`` (default: all of it)
        onto the memtable tail; an empty range stages nothing."""
        if stop is None:
            stop = piece.n_rows
        if start == stop:
            return
        if self.rows is None:
            self.rows = piece.slice_rows(start, stop)
        else:
            self.rows = self.rows.appended(piece, start, stop)
        self._stamp(lsn)

    def delete(self, effective_mask: np.ndarray, lsn: int) -> int:
        """Apply one delete mask expressed over the *effective* rows.

        The first ``live_base_rows`` entries address surviving base rows
        (tombstoned lazily); the remainder address the memtable
        (dropped eagerly).  Returns the number of rows deleted.
        """
        mask = np.asarray(effective_mask, dtype=bool)
        expected = self.live_base_rows + self.n_rows
        require(
            mask.shape == (expected,),
            f"delete mask covers {mask.shape} rows, partition has {expected}",
        )
        deleted = int(np.count_nonzero(mask))
        if deleted == 0:
            return 0
        base_part = mask[: self.live_base_rows]
        delta_part = mask[self.live_base_rows :]
        base_deleted = int(np.count_nonzero(base_part))
        if base_deleted:
            if self.deleted_base is None:
                self.deleted_base = np.zeros(self.base_rows, dtype=bool)
            live_positions = np.flatnonzero(~self.deleted_base)
            self.deleted_base[live_positions[base_part]] = True
            self.n_deleted += base_deleted
        if deleted > base_deleted:
            self.rows = self.rows.select(~delta_part)
            self._zones = {}
            if self.rows.n_rows == 0:
                self.rows = None
        self.shape_version += 1
        self._stamp(lsn)
        return deleted

    def clear(self) -> None:
        """Reset after compaction folded this delta into a new base."""
        self.rows = None
        self.deleted_base = None
        self.n_deleted = 0
        self.first_lsn = 0
        self.last_lsn = 0
        self.version += 1
        self.shape_version += 1
        self._synopsis = None
        self._synopsis_version = -1
        self._zones = {}

    def rebase(self, base_rows: int) -> None:
        """Point at a freshly merged base of ``base_rows`` rows."""
        self.base_rows = base_rows
        self.clear()

    # Pruning support -------------------------------------------------------
    def synopsis(self) -> Optional[DeltaZone]:
        """Zone map over the *appended* rows only (one object per version).

        A base-synopsis SKIP verdict stays sound for a dirty partition
        iff the memtable is also disjoint from the query box — this is
        the delta side of that check.  Deletes never un-skip.  Kept, not
        rebuilt: see :class:`DeltaZone`.
        """
        if self.rows is None:
            return None
        if self._synopsis_version != self.version:
            self._synopsis = DeltaZone(self.rows, self._zones)
            self._synopsis_version = self.version
        return self._synopsis

    def _stamp(self, lsn: int) -> None:
        if self.first_lsn == 0:
            self.first_lsn = lsn
        self.last_lsn = max(self.last_lsn, lsn)
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaPartition(+{self.n_rows} rows, -{self.n_deleted} base, "
            f"lsn {self.first_lsn}..{self.last_lsn})"
        )
