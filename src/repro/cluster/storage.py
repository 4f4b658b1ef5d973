"""Distributed storage back-end: partitioned tables over cluster nodes.

Models the storage layer of a BDAS (HDFS blocks / HBase regions): a table
is split into partitions, each placed on a node (optionally replicated).
Engines read partitions through :meth:`DistributedStore.read_partition`,
which charges the scan to a :class:`~repro.common.CostMeter` — that is the
*only* sanctioned way to touch base data, so every byte an execution reads
is metered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.accounting import CostMeter
from repro.common.errors import (
    PartitionLostError,
    RecoveryError,
    StorageError,
    WriteError,
)
from repro.common.rng import SeedLike, make_rng
from repro.common.validation import require
from repro.cluster.columnar import ColumnarPartition
from repro.cluster.synopsis import PartitionSynopsis
from repro.cluster.topology import ClusterTopology
from repro.data.tabular import Table

#: Storage layouts: row-major partitions (the seed behaviour) or
#: per-column encodings chosen at ingest (see repro.cluster.columnar).
LAYOUT_ROW = "row"
LAYOUT_COLUMN = "column"


@dataclass
class TablePartition:
    """One horizontal shard of a stored table.

    ``columnar`` is the partition's encoded image when the table was
    stored with ``layout="column"`` (None for row-major tables).  The
    decoded ``data`` stays the logical source of truth — ``n_bytes`` is
    the row-major serialized size the cost model's *logical* accounting
    uses, while ``stored_bytes`` is what actually sits on disk (and what
    a full scan of a columnar partition reads).
    """

    partition_id: str
    table_name: str
    index: int
    data: Table
    primary_node: str
    replica_nodes: List[str]
    columnar: Optional[ColumnarPartition] = None
    #: Bumped on every *base-image* swap (synchronous append/delete, or
    #: compaction when durable ingest is on), never by a staged delta
    #: write; ingest checkpoints record it beside the base image.
    generation: int = 0
    #: Pending writes while durable ingest is enabled (a
    #: :class:`~repro.ingest.delta.DeltaPartition`); None otherwise.
    delta: Optional[object] = field(default=None, repr=False, compare=False)
    #: The materialized base+delta view: ``(delta.shape_version, memtable
    #: rows folded in, view)``.
    _view: Optional[Tuple[int, int, Table]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def dirty(self) -> bool:
        """True iff staged delta writes make the view differ from base."""
        return self.delta is not None and self.delta.dirty

    def read_view(self) -> Table:
        """The partition's effective content: ``base[~deleted] ++ delta``.

        Element-identical to having applied the staged writes
        synchronously, so every aggregate over the view is bitwise equal
        to the post-compaction answer.  Clean partitions return ``data``
        itself (zero cost).  A dirty view is *extended*, not rebuilt:
        while no row has left since it was built
        (``delta.shape_version`` stands still) it only lacks the
        memtable rows appended since, and :meth:`Table.appended` adds
        those in place — the first read after an append costs what was
        appended, not the partition.  Views handed out earlier keep
        their rows (see ``appended``'s tail rule).
        """
        delta = self.delta
        if delta is None or not delta.dirty:
            return self.data
        n_rows = delta.n_rows
        cached = self._view
        if cached is not None and cached[0] == delta.shape_version:
            _, seen, view = cached
            if seen == n_rows:
                return view
        else:
            view = self.data
            if delta.n_deleted:
                view = view.select(~delta.deleted_base)
            seen = 0
        if seen < n_rows:
            view = view.appended(delta.rows, seen, n_rows)
        self._view = (delta.shape_version, n_rows, view)
        return view

    @property
    def n_rows(self) -> int:
        """Rows of :meth:`read_view`, counted without building it."""
        delta = self.delta
        if delta is None:
            return self.data.n_rows
        return delta.live_base_rows + delta.n_rows

    @property
    def n_bytes(self) -> int:
        return self.n_rows * self.data.row_bytes

    @property
    def base_stored_bytes(self) -> int:
        """On-disk footprint of the base image alone (encoded if columnar)."""
        if self.columnar is not None:
            return self.columnar.encoded_bytes
        return self.data.n_bytes

    @property
    def stored_bytes(self) -> int:
        """Total footprint: base image plus any staged delta memtable."""
        total = self.base_stored_bytes
        if self.delta is not None:
            total += self.delta.n_bytes
        return total

    @property
    def row_bytes(self) -> int:
        """Average serialized bytes one full row costs to point-read."""
        if self.columnar is not None and self.n_rows > 0 and not self.dirty:
            return max(1, self.columnar.encoded_bytes // self.n_rows)
        return self.data.row_bytes

    def take(self, indices) -> Table:
        """Materialise full rows at the given positions.

        Columnar partitions gather through the encoded columns (late
        materialization: only the requested rows are decoded), bitwise
        equal to ``data.take``.  Dirty partitions gather from the
        base+delta view — the encoded image does not cover staged rows.
        """
        if self.dirty:
            return self.read_view().take(indices)
        if self.columnar is not None:
            return self.columnar.take(indices)
        return self.data.take(indices)

    @property
    def all_nodes(self) -> List[str]:
        return [self.primary_node] + list(self.replica_nodes)


@dataclass
class StoredTable:
    """Catalog entry for a distributed table."""

    name: str
    partitions: List[TablePartition]

    @property
    def n_rows(self) -> int:
        return sum(p.n_rows for p in self.partitions)

    @property
    def n_bytes(self) -> int:
        return sum(p.n_bytes for p in self.partitions)

    @property
    def stored_bytes(self) -> int:
        """On-disk footprint over all partitions (encoded when columnar)."""
        return sum(p.stored_bytes for p in self.partitions)

    @property
    def columnar(self) -> bool:
        """True iff every partition carries a columnar image."""
        return bool(self.partitions) and all(
            p.columnar is not None for p in self.partitions
        )

    def _require_partitions(self) -> None:
        if not self.partitions:
            raise StorageError(f"table {self.name!r} has no partitions")

    @property
    def column_names(self) -> List[str]:
        self._require_partitions()
        return self.partitions[0].data.column_names

    @property
    def nodes(self) -> List[str]:
        """Distinct primary nodes holding some partition of this table."""
        self._require_partitions()
        seen: Dict[str, None] = {}
        for p in self.partitions:
            seen.setdefault(p.primary_node, None)
        return list(seen)

    def placement(self, n_rows: int) -> List[Tuple[int, int, int]]:
        """Where an append of ``n_rows`` rows lands, as contiguous
        ``(partition index, start, stop)`` row ranges in index order.

        Partitions fill in index order, each up to ``cap = 2 * ceil((live
        + n_rows) / n_partitions)`` rows, so rows that arrive together
        land together and zone maps over arrival-ordered columns stay
        narrow (DESIGN §13 "Where an append lands").  The spare room sums
        to at least ``n_partitions * cap - live >= n_rows``: it always fits.
        """
        self._require_partitions()
        sizes = [p.n_rows for p in self.partitions]
        cap = 2 * -(-(sum(sizes) + n_rows) // len(sizes))
        ranges: List[Tuple[int, int, int]] = []
        start = 0
        for index, size in enumerate(sizes):
            stop = min(n_rows, start + cap - size)
            if stop > start:
                ranges.append((index, start, stop))
                start = stop
        return ranges

    def full_table(self) -> Table:
        """Materialise the whole table (test/verification use only).

        Uses each partition's effective base+delta view, so staged
        (not-yet-compacted) writes are included.
        """
        self._require_partitions()
        return Table.concat(
            [p.read_view() for p in self.partitions], name=self.name
        )


class DistributedStore:
    """The cluster's storage engine: placement, catalog, metered reads."""

    def __init__(
        self,
        topology: ClusterTopology,
        replication: int = 1,
        layout: str = LAYOUT_ROW,
    ) -> None:
        require(replication >= 1, "replication must be >= 1")
        require(
            replication <= len(topology),
            f"replication {replication} exceeds cluster size {len(topology)}",
        )
        require(
            layout in (LAYOUT_ROW, LAYOUT_COLUMN),
            f"unknown layout {layout!r} (expected 'row' or 'column')",
        )
        self.topology = topology
        self.replication = replication
        # Default partition layout for put_table (per-table override there).
        # "row" preserves the seed path byte-for-byte; "column" stores the
        # encoded image alongside and lets engines scan it instead.
        self.layout = layout
        self._catalog: Dict[str, StoredTable] = {}
        # Per-table zone-map synopses, index-aligned with the partitions.
        self._synopses: Dict[str, List[PartitionSynopsis]] = {}
        # Cumulative bytes served per node, for replica load balancing.
        self._served_bytes: Dict[str, int] = {}
        # Optional fault injector (see repro.faults); None = healthy cluster.
        self._faults = None
        # Optional durable ingest pipeline (see repro.ingest); when set,
        # append_rows/delete_rows route through the WAL + delta path.
        self._ingest = None

    # Fault injection -------------------------------------------------------
    @property
    def faults(self):
        """The attached :class:`~repro.faults.FaultInjector`, or ``None``."""
        return self._faults

    def attach_faults(self, injector) -> None:
        """Route every metered read through ``injector`` from now on."""
        self._faults = injector

    def clear_faults(self) -> None:
        """Detach the injector: the cluster is healthy again."""
        self._faults = None

    # Durable ingest --------------------------------------------------------
    @property
    def ingest(self):
        """The attached :class:`~repro.ingest.IngestPipeline`, or ``None``."""
        return self._ingest

    def enable_ingest(self, config=None, observer=None):
        """Switch writes to the durable WAL + delta-partition path.

        Idempotent: returns the existing pipeline if already enabled
        (``config`` is only honoured on the first call).  Already-stored
        tables are adopted (deltas attached, initial checkpoints
        written); tables stored later register automatically.
        """
        if self._ingest is None:
            from repro.ingest.pipeline import IngestPipeline

            self._ingest = IngestPipeline(self, config, observer=observer)
        return self._ingest

    def recover(self):
        """Crash-consistent recovery: replay the WAL onto checkpoints.

        Returns a :class:`~repro.ingest.RecoveryReport`; raises
        :class:`RecoveryError` if durable ingest was never enabled or
        the rebuilt image fails its consistency verification.
        """
        if self._ingest is None:
            raise RecoveryError(
                "durable ingest is not enabled on this store; "
                "call enable_ingest() first"
            )
        return self._ingest.recover()

    def account_delta_bytes(self, partition: TablePartition, n_bytes: int) -> None:
        """Adjust replica byte accounting for a delta memtable change."""
        if n_bytes == 0:
            return
        for node_id in partition.all_nodes:
            self.topology.node(node_id).stored_bytes += n_bytes

    def reset_served_bytes(self) -> None:
        """Forget per-node served-byte load counters (process restart)."""
        self._served_bytes.clear()

    def compact_partition(self, name: str, index: int) -> Optional[Dict]:
        """Merge one partition's delta into a new base image.

        This is the compaction moment: the effective base+delta view
        becomes the new base (bumping ``generation`` exactly once per
        merge, which is what keeps shared-memory republish bounded), the
        columnar image is re-encoded from fresh statistics, and the
        synopsis is rebuilt.  Returns merge stats, or ``None`` if the
        partition was clean.
        """
        stored = self.table(name)
        partition = stored.partitions[index]
        delta = partition.delta
        if delta is None or not delta.dirty:
            return None
        merged = partition.read_view()
        info = {
            "partition": partition.partition_id,
            "appended_rows": delta.n_rows,
            "deleted_rows": delta.n_deleted,
            "applied_lsn": delta.last_lsn,
            "merged_rows": merged.n_rows,
        }
        old_stored = partition.stored_bytes  # base image + delta memtable
        delta.rebase(merged.n_rows)
        partition._view = None
        partition.data = merged
        partition.generation += 1
        if partition.columnar is not None:
            partition.columnar = ColumnarPartition.from_table(merged)
        synopsis = PartitionSynopsis.from_table(merged)
        self._record_encodings(synopsis, partition)
        self._synopses[name][index] = synopsis
        diff = partition.stored_bytes - old_stored
        if diff:
            for node_id in partition.all_nodes:
                self.topology.node(node_id).stored_bytes += diff
        info["stored_bytes"] = partition.stored_bytes
        return info

    def restore_partition(
        self, partition: TablePartition, data: Table, columnar: bool
    ) -> PartitionSynopsis:
        """Reset a partition's base image from a checkpoint (recovery).

        The caller must have detached the delta (and retracted its byte
        accounting) first.  The generation is bumped rather than
        restored so a recovered image can never alias a shared-memory
        segment published before the crash.
        """
        old_stored = partition.stored_bytes
        partition.data = data
        partition.generation += 1
        partition.columnar = (
            ColumnarPartition.from_table(data) if columnar else None
        )
        partition._view = None
        synopsis = PartitionSynopsis.from_table(data)
        self._record_encodings(synopsis, partition)
        diff = partition.stored_bytes - old_stored
        if diff:
            for node_id in partition.all_nodes:
                self.topology.node(node_id).stored_bytes += diff
        return synopsis

    def read_slowdown(self, node_id: str) -> float:
        """Straggler multiplier for disk time on ``node_id`` (1.0 healthy)."""
        if self._faults is None:
            return 1.0
        return self._faults.slowdown(node_id)

    def pick_replica(self, partition: TablePartition) -> str:
        """The least-loaded *live* replica of a partition (read balancing).

        With replication > 1, spreading reads across replicas keeps hot
        partitions from turning their primary node into a bottleneck.
        With a fault injector attached, crashed replicas are never
        returned; raises :class:`PartitionLostError` when every replica
        is down.
        """
        candidates = partition.all_nodes
        if self._faults is not None and self._faults.active:
            candidates = [n for n in candidates if not self._faults.is_down(n)]
            if not candidates:
                raise PartitionLostError(
                    partition.partition_id, tried=partition.all_nodes
                )
        return min(
            candidates,
            key=lambda node: self._served_bytes.get(node, 0),
        )

    def served_bytes(self, node_id: str) -> int:
        return self._served_bytes.get(node_id, 0)

    # Placement -----------------------------------------------------------
    def put_table(
        self,
        table: Table,
        partitions_per_node: int = 1,
        nodes: Optional[List[str]] = None,
        seed: SeedLike = 0,
        layout: Optional[str] = None,
    ) -> StoredTable:
        """Shard ``table`` row-wise across nodes and register it.

        Partitions are placed round-robin over ``nodes`` (default: every
        node of the topology); replicas go to the next nodes in the ring.

        ``layout`` overrides the store default per table: ``"column"``
        additionally builds each partition's encoded columnar image at
        ingest (encodings chosen per column from cheap statistics and
        recorded in the partition synopsis), which engines scan instead
        of the row image while answers stay byte-identical.
        """
        if table.name in self._catalog:
            raise StorageError(f"table {table.name!r} already stored")
        layout = layout if layout is not None else self.layout
        require(
            layout in (LAYOUT_ROW, LAYOUT_COLUMN),
            f"unknown layout {layout!r} (expected 'row' or 'column')",
        )
        target_nodes = list(nodes) if nodes is not None else self.topology.node_ids
        require(len(target_nodes) >= 1, "need at least one target node")
        for node_id in target_nodes:
            if node_id not in self.topology:
                raise StorageError(f"unknown node {node_id}")
        n_parts = max(1, len(target_nodes) * partitions_per_node)
        n_parts = min(n_parts, max(1, table.n_rows))
        shards = table.split(n_parts)
        # Shuffle placement deterministically so partition index does not
        # correlate with node index across tables.
        order = make_rng(seed).permutation(len(target_nodes))
        ring = [target_nodes[i] for i in order]
        partitions = []
        for i, shard in enumerate(shards):
            primary = ring[i % len(ring)]
            replicas = [
                ring[(i + j) % len(ring)]
                for j in range(1, self.replication)
                if ring[(i + j) % len(ring)] != primary
            ]
            partition = TablePartition(
                partition_id=f"{table.name}/p{i}",
                table_name=table.name,
                index=i,
                data=shard,
                primary_node=primary,
                replica_nodes=replicas,
                columnar=(
                    ColumnarPartition.from_table(shard)
                    if layout == LAYOUT_COLUMN
                    else None
                ),
            )
            for node_id in partition.all_nodes:
                self.topology.node(node_id).add_partition(
                    partition.partition_id, partition.stored_bytes
                )
            partitions.append(partition)
        stored = StoredTable(name=table.name, partitions=partitions)
        self._catalog[table.name] = stored
        # Zone maps are written at ingest (like ORC/Parquet block footers),
        # so building them here is storage-side work, not query-time cost.
        # Columnar tables also record their encoding decisions there.
        synopses = []
        for p in partitions:
            synopsis = PartitionSynopsis.from_table(p.data)
            if p.columnar is not None:
                synopsis.encodings = dict(p.columnar.encodings)
            synopses.append(synopsis)
        self._synopses[table.name] = synopses
        if self._ingest is not None:
            self._ingest.register_table(stored)
        return stored

    def drop_table(self, name: str) -> None:
        stored = self.table(name)
        for partition in stored.partitions:
            for node_id in partition.all_nodes:
                self.topology.node(node_id).drop_partition(
                    partition.partition_id, partition.stored_bytes
                )
        del self._catalog[name]
        self._synopses.pop(name, None)
        if self._ingest is not None:
            self._ingest.deregister_table(name)

    # Catalog -------------------------------------------------------------
    def table(self, name: str) -> StoredTable:
        try:
            return self._catalog[name]
        except KeyError:
            raise StorageError(
                f"unknown table {name!r}; stored: {list(self._catalog)}"
            ) from None

    @property
    def table_names(self) -> List[str]:
        return list(self._catalog)

    def synopses(self, name: str) -> List[PartitionSynopsis]:
        """The table's zone-map synopses, index-aligned with its partitions."""
        self.table(name)  # raises StorageError for unknown tables
        return self._synopses[name]

    def synopsis_bytes(self, name: str) -> int:
        """Total serialized footprint of one table's synopses."""
        return sum(s.n_bytes for s in self.synopses(name))

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    # Metered access --------------------------------------------------------
    def read_partition(
        self, partition: TablePartition, meter: CostMeter, node_id: Optional[str] = None
    ) -> Table:
        """Full scan of one partition, charged to ``meter``.

        ``node_id`` selects which replica serves the read (default the
        primary).  Returns the partition's data.
        """
        serving = node_id if node_id is not None else partition.primary_node
        if serving not in partition.all_nodes:
            raise StorageError(
                f"node {serving} holds no replica of {partition.partition_id}"
            )
        faults = self._faults
        if faults is not None:
            # A dead node refuses the connection: nothing is charged, so
            # failover to a live replica stays byte-identical to no-fault.
            faults.check_available(serving, partition.partition_id)
        num_bytes = partition.stored_bytes
        meter.charge_scan(serving, num_bytes, rows=partition.n_rows)
        self._served_bytes[serving] = (
            self._served_bytes.get(serving, 0) + num_bytes
        )
        if faults is not None:
            # Transient failures strike after the bytes were served: the
            # wasted attempt's charge is the retry overhead made visible.
            faults.maybe_fail_read(serving, partition.partition_id)
        return partition.read_view()

    def read_columns(
        self,
        partition: TablePartition,
        columns: Optional[Sequence[str]],
        meter: CostMeter,
        node_id: Optional[str] = None,
    ) -> ColumnarPartition:
        """Column-pruned scan of a columnar partition, charged to ``meter``.

        Reads (and charges) only the named columns' *encoded* bytes —
        the storage-side half of late materialization.  Fault-injection
        semantics mirror :meth:`read_partition` exactly (availability
        checked before any charge, transient failures strike after the
        bytes were served), so failover replays are byte-identical
        between the row and columnar paths.
        """
        if partition.columnar is None:
            raise StorageError(
                f"partition {partition.partition_id} has no columnar image "
                "(stored with layout='row')"
            )
        if partition.dirty:
            # The encoded image covers only the base rows; engines must
            # fall back to read_partition for dirty partitions.
            raise StorageError(
                f"partition {partition.partition_id} has staged delta "
                "writes; its columnar image does not cover them"
            )
        serving = node_id if node_id is not None else partition.primary_node
        if serving not in partition.all_nodes:
            raise StorageError(
                f"node {serving} holds no replica of {partition.partition_id}"
            )
        faults = self._faults
        if faults is not None:
            faults.check_available(serving, partition.partition_id)
        projected = partition.columnar.project(columns)
        num_bytes = projected.encoded_bytes
        meter.charge_scan(serving, num_bytes, rows=partition.n_rows)
        self._served_bytes[serving] = (
            self._served_bytes.get(serving, 0) + num_bytes
        )
        if faults is not None:
            faults.maybe_fail_read(serving, partition.partition_id)
        return projected

    def read_rows(
        self,
        partition: TablePartition,
        row_indices,
        meter: CostMeter,
        node_id: Optional[str] = None,
        materialize: bool = True,
    ) -> Optional[Table]:
        """Surgical point-reads of specific rows, charged per row.

        This is the primitive the big-data-less suite (RT2) relies on: the
        cost is proportional to the rows actually fetched, not to the
        partition size.

        ``materialize=False`` applies the charges and load accounting but
        returns ``None`` — used by batched fetches that already hold the
        rows from a shared read and only need the cost replayed.
        """
        serving = node_id if node_id is not None else partition.primary_node
        if serving not in partition.all_nodes:
            raise StorageError(
                f"node {serving} holds no replica of {partition.partition_id}"
            )
        faults = self._faults
        if faults is not None:
            faults.check_available(serving, partition.partition_id)
        idx = np.asarray(row_indices, dtype=int)
        # Columnar partitions price a row at its average *encoded* width
        # (partition.row_bytes); row-major partitions keep the exact
        # row-major width, so the seed accounting is unchanged.
        num_bytes = idx.shape[0] * partition.row_bytes
        meter.charge_point_read(serving, num_bytes, rows=idx.shape[0])
        self._served_bytes[serving] = (
            self._served_bytes.get(serving, 0) + num_bytes
        )
        if faults is not None:
            faults.maybe_fail_read(serving, partition.partition_id)
        if not materialize:
            return None
        return partition.take(idx)

    # Mutation (model-maintenance experiments) ------------------------------
    def append_rows(self, name: str, rows: Table) -> None:
        """Append ``rows`` to a stored table where
        :meth:`StoredTable.placement` puts them.

        Partitions the batch does not reach are left untouched — data,
        node byte accounting, and synopsis; grown partitions update all
        three together so the bookkeeping cannot diverge.

        With durable ingest enabled (:meth:`enable_ingest`) the write is
        WAL-logged and staged into delta partitions instead of mutating
        base images; reads see it immediately through the base+delta
        view and the background compactor merges it at the next epoch.
        """
        if self._ingest is not None:
            self._ingest.append(name, rows)
            return
        try:
            stored = self.table(name)
        except StorageError as exc:
            raise WriteError("append", str(exc)) from None
        require(
            rows.column_names == stored.column_names,
            f"schema mismatch: {rows.column_names} vs {stored.column_names}",
        )
        if rows.n_rows == 0:
            return
        synopses = self._synopses[name]
        for index, start, stop in stored.placement(rows.n_rows):
            partition = stored.partitions[index]
            piece = rows.slice_rows(start, stop)
            grown = partition.data.appended(piece)
            synopses[index] = synopses[index].appended(piece, grown)
            self._replace_partition_data(partition, grown)
            self._record_encodings(synopses[index], partition)

    def delete_rows(self, name: str, predicate) -> int:
        """Delete rows matching ``predicate(table) -> bool mask``; returns count.

        Partitions the predicate does not touch keep their data object
        (and synopsis) untouched; partitions left empty keep consistent
        accounting (zero stored bytes, an always-prunable synopsis).
        Minima/maxima are not decrementable, so a shrunk partition's
        synopsis is rebuilt from the surviving rows.

        With durable ingest enabled the delete is WAL-logged as the
        evaluated masks of the partitions it hit and staged as tombstones; base
        rows disappear from the view immediately and physically at the
        next compaction.
        """
        if self._ingest is not None:
            return self._ingest.delete(name, predicate)
        try:
            stored = self.table(name)
        except StorageError as exc:
            raise WriteError("delete", str(exc)) from None
        synopses = self._synopses[name]
        deleted = 0
        for index, partition in enumerate(stored.partitions):
            mask = np.asarray(predicate(partition.data), dtype=bool)
            require(
                mask.shape == (partition.n_rows,),
                f"predicate mask shape {mask.shape} does not match "
                f"{partition.n_rows} rows of {partition.partition_id}",
            )
            hit = int(np.count_nonzero(mask))
            if hit == 0:
                continue
            keep = partition.data.select(~mask)
            deleted += hit
            synopses[index] = PartitionSynopsis.from_table(keep)
            self._replace_partition_data(partition, keep)
            self._record_encodings(synopses[index], partition)
        return deleted

    def _replace_partition_data(
        self, partition: TablePartition, new_data: Table
    ) -> None:
        """Swap a partition's data, keeping every replica's bytes exact.

        Columnar partitions re-encode from the new rows (this *is* the
        compaction moment: encoding decisions are re-taken from fresh
        column statistics), and the per-node byte deltas use the encoded
        footprints so node accounting tracks what is actually stored.
        """
        old_stored = partition.stored_bytes
        partition.data = new_data
        partition.generation += 1
        if partition.columnar is not None:
            partition.columnar = ColumnarPartition.from_table(new_data)
        delta = partition.stored_bytes - old_stored
        if delta == 0:
            return
        for node_id in partition.all_nodes:
            self.topology.node(node_id).stored_bytes += delta

    @staticmethod
    def _record_encodings(
        synopsis: PartitionSynopsis, partition: TablePartition
    ) -> None:
        """Mirror a partition's (re-)encoding decisions into its synopsis."""
        if partition.columnar is not None:
            synopsis.encodings = dict(partition.columnar.encodings)
