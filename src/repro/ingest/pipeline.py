"""The ingest pipeline: WAL-fronted writes, epochs, compaction, recovery.

One :class:`IngestPipeline` attaches to a
:class:`~repro.cluster.storage.DistributedStore` via ``enable_ingest``
and takes over the write path:

1. every ``append_rows``/``delete_rows`` is framed into the
   :class:`~repro.ingest.wal.WriteAheadLog` first, then staged into the
   target partitions' :class:`~repro.ingest.delta.DeltaPartition`s —
   base images are never touched by a write;
2. the simulated clock (:meth:`advance`, normally driven through
   ``SEASession.advance``) closes an *epoch* every
   ``epoch_seconds``: the WAL tail is synced (group commit), every
   dirty delta is merged into its base by the background compactor,
   and a per-partition checkpoint ``(base image, generation,
   applied_lsn)`` records how far the merge got;
3. epoch close is also the maintenance moment: one
   ``agent.notify_data_update`` bounding box and one answer-cache
   invalidation per table per epoch, instead of per write — writes are
   visible to queries immediately (reads union base+delta), but
   model/cache maintenance runs at the epoch cadence, so the staleness
   of *learned* answers is bounded by ``epoch_seconds``.

Durability contract: a write survives a crash iff a successful WAL
sync covered its record.  :meth:`crash` loses every delta and the
unsynced WAL tail (leaving at most a torn, checksummed-detectable
fragment); :meth:`recover` restores bases from checkpoints, replays
durable records past each partition's ``applied_lsn`` (idempotent —
a half-merged compaction replays only the unmerged partitions), and
verifies ``synopses_consistent``/``columnar_consistent`` before
accepting writes again.

Injected faults (via the store's :class:`~repro.faults.FaultInjector`):
``wal_sync`` and ``checkpoint`` are transient points the compactor
retries with capped exponential backoff on the simulated clock;
``wal_record``, ``delta_append`` and ``compaction`` are crash windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import (
    RecoveryError,
    StorageError,
    WriteCrashError,
    WriteError,
)
from repro.common.validation import require
from repro.data.tabular import Table
from repro.ingest.delta import DeltaPartition
from repro.ingest.wal import (
    WAL_APPEND,
    WAL_DELETE,
    WAL_EPOCH,
    WriteAheadLog,
)
from repro.obs.observer import NULL_OBSERVER, Observer


@dataclass
class IngestConfig:
    """Knobs for the durable write path.

    ``epoch_seconds`` is the staleness bound: the longest a staged
    write can wait before compaction folds it into base images and the
    per-epoch maintenance (synopsis rebuild, cache invalidation, model
    drift notification) runs.  ``retry_limit``/``backoff_*`` shape the
    compactor's capped exponential backoff against transient
    ``wal_sync``/``checkpoint`` faults.
    """

    epoch_seconds: float = 1.0
    retry_limit: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 0.5
    prune_wal: bool = True

    def __post_init__(self) -> None:
        require(self.epoch_seconds > 0, "epoch_seconds must be positive")
        require(self.retry_limit >= 0, "retry_limit must be >= 0")
        require(self.backoff_base > 0, "backoff_base must be positive")
        require(self.backoff_cap >= self.backoff_base,
                "backoff_cap must be >= backoff_base")


@dataclass
class PartitionCheckpoint:
    """Durable per-partition compaction state: the recovery floor."""

    data: Table
    generation: int
    applied_lsn: int


@dataclass
class RecoveryReport:
    """What :meth:`IngestPipeline.recover` rebuilt and verified."""

    records_scanned: int = 0
    records_replayed: int = 0
    torn_bytes: int = 0
    partitions_restored: int = 0
    tables: List[str] = field(default_factory=list)
    durable_lsn: int = 0
    epoch: int = 0
    synopses_ok: bool = False
    columnar_ok: bool = False


class IngestPipeline:
    """Durable write path + background compactor for one store."""

    def __init__(
        self,
        store,
        config: Optional[IngestConfig] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.store = store
        self.config = config or IngestConfig()
        self.observer = observer or NULL_OBSERVER
        self.wal = WriteAheadLog()
        self.clock = 0.0
        self.epoch = 0
        self.epoch_opened = 0.0
        self.crashed = False
        self.n_retries = 0
        self.n_compactions = 0
        self.n_epochs_closed = 0
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        self._checkpoints: Dict[Tuple[str, int], PartitionCheckpoint] = {}
        # name -> {"columnar": bool} — which tables recovery must rebuild.
        self._tables: Dict[str, Dict[str, Any]] = {}
        # Per-epoch maintenance state: table -> (lows, highs) bounding box
        # over this epoch's written rows, plus appended/deleted counters.
        self._epoch_boxes: Dict[str, Dict[str, Any]] = {}
        for name in store.table_names:
            self.register_table(store.table(name))

    def attach_observer(self, observer: Observer) -> None:
        self.observer = observer

    # Registration ----------------------------------------------------------
    def register_table(self, stored) -> None:
        """Adopt a stored table: attach deltas, write its first checkpoints."""
        columnar = all(p.columnar is not None for p in stored.partitions)
        self._tables[stored.name] = {"columnar": columnar}
        for partition in stored.partitions:
            partition.delta = DeltaPartition(partition.data.n_rows)
            self._checkpoints[(stored.name, partition.index)] = (
                PartitionCheckpoint(
                    data=partition.data,
                    generation=partition.generation,
                    applied_lsn=0,
                )
            )

    def deregister_table(self, name: str) -> None:
        self._tables.pop(name, None)
        self._checkpoints = {
            key: cp for key, cp in self._checkpoints.items() if key[0] != name
        }
        self._epoch_boxes.pop(name, None)

    def on_epoch(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        """Call ``listener(summary)`` after every epoch close (the hook
        the session uses for per-epoch cache/model maintenance)."""
        self._listeners.append(listener)

    # Introspection ---------------------------------------------------------
    @property
    def staleness_bound(self) -> float:
        """Upper bound on write-to-compaction latency (simulated seconds)."""
        return self.config.epoch_seconds

    @property
    def pending_delta_rows(self) -> int:
        total = 0
        for name in self._tables:
            for partition in self.store.table(name).partitions:
                if partition.delta is not None:
                    total += partition.delta.n_rows
        return total

    def stats(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "clock": self.clock,
            "crashed": self.crashed,
            "wal_disk_bytes": self.wal.disk_bytes,
            "wal_pending_records": self.wal.pending_records,
            "wal_synced_lsn": self.wal.synced_lsn,
            "pending_delta_rows": self.pending_delta_rows,
            "epochs_closed": self.n_epochs_closed,
            "compactions": self.n_compactions,
            "retries": self.n_retries,
        }

    # Write path ------------------------------------------------------------
    def append(self, name: str, rows: Table) -> int:
        """Log and stage an append; returns its LSN (0 for empty input)."""
        self._guard()
        stored = self._stored_for_write(name, "append")
        require(
            rows.column_names == stored.column_names,
            f"schema mismatch: {rows.column_names} vs {stored.column_names}",
        )
        if rows.n_rows == 0:
            return 0
        # Placement reads live row counts, which replay cannot see again
        # (a checkpoint may be newer than the record): log the decision.
        ranges = stored.placement(rows.n_rows)
        payload = {
            "table": name,
            "columns": {c: rows.column(c) for c in rows.column_names},
            "value_bytes": rows.value_bytes,
            "ranges": ranges,
        }
        lsn = self._log(WAL_APPEND, payload)
        self._check_write("delta_append", f"append lsn={lsn} table={name}")
        for index, start, stop in ranges:
            self._stage_append(stored.partitions[index], rows, start, stop, lsn)
        self._box_union(name, rows)
        if self.observer.enabled:
            self.observer.inc("ingest_appended_rows_total", rows.n_rows)
        return lsn

    def delete(self, name: str, predicate) -> int:
        """Log and stage a delete; returns the number of rows tombstoned."""
        self._guard()
        stored = self._stored_for_write(name, "delete")
        staged = []
        masks: Dict[int, np.ndarray] = {}
        for partition in stored.partitions:
            view = partition.read_view()
            mask = np.asarray(predicate(view), dtype=bool)
            require(
                mask.shape == (view.n_rows,),
                f"predicate mask shape {mask.shape} does not match "
                f"{view.n_rows} rows of {partition.partition_id}",
            )
            if mask.any():  # only the masks that hit are logged
                staged.append((partition, view, mask))
                masks[partition.index] = mask
        payload = {"table": name, "masks": masks}
        lsn = self._log(WAL_DELETE, payload)
        self._check_write("delta_append", f"delete lsn={lsn} table={name}")
        deleted = 0
        for partition, view, mask in staged:
            self._box_union(name, view.select(mask))
            deleted += self._stage_delete(partition, mask, lsn)
        if self.observer.enabled and deleted:
            self.observer.inc("ingest_deleted_rows_total", deleted)
        return deleted

    # Clock / epochs --------------------------------------------------------
    def advance(self, seconds: float) -> float:
        """Move the simulated clock; close every epoch boundary crossed."""
        require(seconds >= 0.0, f"cannot advance time by {seconds}")
        self._guard()
        self.clock += seconds
        while self.clock - self.epoch_opened >= self.config.epoch_seconds:
            self._close_epoch(self.epoch_opened + self.config.epoch_seconds)
        return self.clock

    def flush(self) -> Dict[str, Any]:
        """Close the current epoch immediately (sync + compact + maintain)."""
        self._guard()
        return self._close_epoch(self.clock)

    # Crash / recovery ------------------------------------------------------
    def crash(self) -> int:
        """Kill the simulated process: volatile write state is lost.

        Deltas, the unsynced WAL tail, and served-bytes load counters
        die with the process; a seeded torn fragment of the oldest
        in-flight record may land on disk.  Returns the torn byte
        count.  Writes raise :class:`WriteError` until :meth:`recover`.
        """
        torn = self.wal.crash(self._cut_fn())
        for name in self._tables:
            for partition in self.store.table(name).partitions:
                delta = partition.delta
                if delta is not None and delta.n_bytes:
                    self.store.account_delta_bytes(partition, -delta.n_bytes)
                partition.delta = None
        self.store.reset_served_bytes()
        self._epoch_boxes = {}
        self.crashed = True
        if self.observer.enabled:
            self.observer.inc("ingest_crashes_total")
            self.observer.event("ingest_crash", torn_bytes=torn, at=self.clock)
        return torn

    def recover(self) -> RecoveryReport:
        """Rebuild a verified store image from checkpoints + WAL replay.

        Idempotent: recovery reads only durable state (checkpoints and
        the synced WAL prefix), so running it twice — or after a clean
        shutdown — converges to the same image.
        """
        report = RecoveryReport()
        records, torn = self.wal.scan()
        report.records_scanned = len(records)
        report.torn_bytes = torn
        store = self.store
        # 1. Restore every partition to its checkpoint (the merge floor).
        for name, meta in self._tables.items():
            report.tables.append(name)
            stored = store.table(name)
            synopses = store.synopses(name)
            for partition in stored.partitions:
                checkpoint = self._checkpoints[(name, partition.index)]
                delta = partition.delta
                if delta is not None and delta.n_bytes:
                    store.account_delta_bytes(partition, -delta.n_bytes)
                partition.delta = None
                restored = store.restore_partition(
                    partition,
                    checkpoint.data,
                    columnar=meta["columnar"],
                )
                synopses[partition.index] = restored
                # The base is the checkpoint's again, under a new generation.
                checkpoint.generation = partition.generation
                partition.delta = DeltaPartition(partition.data.n_rows)
                report.partitions_restored += 1
        self.crashed = False
        # 2. Replay durable records past each partition's applied_lsn.
        last_epoch = -1
        for record in records:
            last_epoch = max(last_epoch, record.epoch)
            if record.rtype == WAL_EPOCH:
                continue
            name = record.payload.get("table")
            if name not in self._tables or name not in store:
                continue
            if self._replay(record):
                report.records_replayed += 1
        if last_epoch >= 0:
            self.epoch = max(self.epoch, last_epoch + 1)
        self.epoch_opened = self.clock
        report.epoch = self.epoch
        report.durable_lsn = max(
            [self.wal.synced_lsn]
            + [cp.applied_lsn for cp in self._checkpoints.values()]
        )
        # 3. Verify the rebuilt image before accepting writes again.
        report.synopses_ok = self._verify_synopses()
        report.columnar_ok = self._verify_columnar()
        if self.observer.enabled:
            self.observer.inc("ingest_recoveries_total")
            self.observer.event(
                "ingest_recovery",
                records_replayed=report.records_replayed,
                torn_bytes=report.torn_bytes,
                durable_lsn=report.durable_lsn,
            )
        if not (report.synopses_ok and report.columnar_ok):
            raise RecoveryError(
                "recovered image failed verification "
                f"(synopses_ok={report.synopses_ok}, "
                f"columnar_ok={report.columnar_ok})"
            )
        return report

    # Internals: write path -------------------------------------------------
    def _guard(self) -> None:
        if self.crashed:
            raise WriteError(
                "crashed",
                "store crashed mid-write; call recover() before writing",
            )

    def _stored_for_write(self, name: str, op: str):
        try:
            return self.store.table(name)
        except StorageError as exc:
            raise WriteError(op, str(exc)) from None

    def _fault_hook(self):
        faults = self.store.faults
        if faults is None:
            return None
        return faults.check_write

    def _check_write(self, point: str, detail: str = "") -> None:
        faults = self.store.faults
        if faults is None:
            return
        try:
            faults.check_write(point, detail)
        except WriteCrashError:
            self.crash()
            raise

    def _cut_fn(self):
        faults = self.store.faults
        if faults is not None:
            return faults.torn_cut
        # No injector: deterministic midpoint tear (still strictly partial).
        return lambda n: max(1, n // 2)

    def _log(self, rtype: int, payload: Dict[str, Any]) -> int:
        try:
            lsn = self.wal.append(
                rtype, payload, self.epoch, fault_hook=self._fault_hook()
            )
        except WriteCrashError:
            self.crash()
            raise
        if self.observer.enabled:
            self.observer.inc("ingest_wal_records_total")
            self.observer.set_gauge(
                "ingest_wal_pending_records", self.wal.pending_records
            )
        return lsn

    def _stage_append(
        self, partition, rows: Table, start: int, stop: int, lsn: int
    ) -> None:
        """Stage ``rows[start:stop]``: a range, not a table per partition."""
        delta = partition.delta
        before = delta.n_bytes
        delta.append(rows, lsn, start, stop)
        self.store.account_delta_bytes(partition, delta.n_bytes - before)

    def _stage_delete(self, partition, mask: np.ndarray, lsn: int) -> int:
        delta = partition.delta
        before = delta.n_bytes
        deleted = delta.delete(mask, lsn)
        self.store.account_delta_bytes(partition, delta.n_bytes - before)
        return deleted

    def _box_union(self, name: str, rows: Table) -> None:
        if rows.n_rows == 0:
            return
        box = self._epoch_boxes.setdefault(
            name, {"lows": {}, "highs": {}, "rows": 0, "order": []}
        )
        box["rows"] += rows.n_rows
        if not box["order"]:
            box["order"] = list(rows.column_names)
        for column in rows.column_names:
            values = rows.column(column)
            low = float(np.min(values))
            high = float(np.max(values))
            if column in box["lows"]:
                box["lows"][column] = min(box["lows"][column], low)
                box["highs"][column] = max(box["highs"][column], high)
            else:
                box["lows"][column] = low
                box["highs"][column] = high

    # Internals: epochs and compaction --------------------------------------
    def _close_epoch(self, opened_next: float) -> Dict[str, Any]:
        epoch = self.epoch
        boxes = self._epoch_boxes
        self._epoch_boxes = {}
        summary: Dict[str, Any] = {
            "epoch": epoch,
            "clock": self.clock,
            "tables": {},
            "partitions_compacted": 0,
            "synced_bytes": 0,
        }
        dirty = self.wal.pending_records > 0 or self.pending_delta_rows > 0
        if not dirty and not any(
            p.delta is not None and p.delta.dirty
            for name in self._tables
            for p in self.store.table(name).partitions
        ):
            # Empty epoch: roll the counter, skip the WAL/compactor work.
            self.epoch += 1
            self.epoch_opened = opened_next
            self._notify(summary, boxes)
            return summary
        try:
            self._run_compaction(epoch, summary)
        except WriteCrashError:
            raise
        except WriteError:
            # Transient failure with retries exhausted: nothing was lost
            # (deltas still hold the staged writes), so put the epoch's
            # maintenance box back for the next close attempt.
            self._epoch_boxes = boxes
            raise
        self.epoch += 1
        self.n_epochs_closed += 1
        self.epoch_opened = opened_next
        if self.observer.enabled:
            self.observer.inc("ingest_epochs_closed_total")
            self.observer.inc(
                "ingest_wal_synced_bytes_total", summary["synced_bytes"]
            )
            self.observer.set_gauge(
                "ingest_wal_disk_bytes", self.wal.disk_bytes
            )
            self.observer.event(
                "epoch_close",
                epoch=epoch,
                partitions_compacted=summary["partitions_compacted"],
                synced_bytes=summary["synced_bytes"],
                at=self.clock,
            )
        self._notify(summary, boxes)
        return summary

    def _run_compaction(self, epoch: int, summary: Dict[str, Any]) -> None:
        with self.observer.span(
            f"epoch {epoch} close", category="compaction", track="ingest"
        ):
            self._log(WAL_EPOCH, {"epoch": epoch, "clock": self.clock})
            summary["synced_bytes"] = self._retry(
                "wal_sync", self.wal.sync, f"epoch={epoch}"
            )
            min_applied = None
            for name in self._tables:
                stored = self.store.table(name)
                for partition in stored.partitions:
                    delta = partition.delta
                    if delta is None or not delta.dirty:
                        checkpoint = self._checkpoints[(name, partition.index)]
                        # Clean: every durable record that named it is in
                        # its base, so the floor rises with the log — unless
                        # a checkpoint write ran out of retries after a
                        # merge, leaving an older base that still needs them.
                        if checkpoint.generation == partition.generation:
                            checkpoint.applied_lsn = self.wal.synced_lsn
                        applied = checkpoint.applied_lsn
                        min_applied = (
                            applied
                            if min_applied is None
                            else min(min_applied, applied)
                        )
                        continue
                    # The recovery floor: the merge folds in *everything*
                    # staged, and every durable record <= synced_lsn that
                    # named this partition was staged when it was logged —
                    # so after this compaction, replay can skip the whole
                    # synced prefix, not just up to the last record that
                    # happened to touch this partition.  (The tighter
                    # floor is what lets pruning drop frames whose writes
                    # landed only on *other* partitions.)
                    applied_lsn = self.wal.synced_lsn
                    self._check_write(
                        "compaction",
                        f"epoch={epoch} partition={partition.partition_id}",
                    )
                    info = self.store.compact_partition(name, partition.index)
                    self._retry(
                        "checkpoint",
                        lambda p=partition, lsn=applied_lsn, n=name: (
                            self._write_checkpoint(n, p, lsn)
                        ),
                        f"partition={partition.partition_id}",
                    )
                    self.n_compactions += 1
                    summary["partitions_compacted"] += 1
                    min_applied = (
                        applied_lsn
                        if min_applied is None
                        else min(min_applied, applied_lsn)
                    )
                    if self.observer.enabled and info is not None:
                        self.observer.inc("compaction_partitions_total")
                        self.observer.inc(
                            "compaction_merged_rows_total",
                            info["appended_rows"] + info["deleted_rows"],
                        )
            if self.config.prune_wal and min_applied:
                # Keep the newest epoch marker (lsn == synced_lsn) even
                # when every partition's floor covers it: a later recover
                # then still sees which epoch the log was stopped in.
                self.wal.prune_through(min(min_applied, self.wal.synced_lsn - 1))

    def _notify(
        self, summary: Dict[str, Any], boxes: Dict[str, Dict[str, Any]]
    ) -> None:
        for name, box in boxes.items():
            # Schema order (not sorted): the box must line up with how
            # maintenance callers pass bounding boxes to the agent.
            columns = box.get("order") or sorted(box["lows"])
            summary["tables"][name] = {
                "columns": columns,
                "lows": [box["lows"][c] for c in columns],
                "highs": [box["highs"][c] for c in columns],
                "rows": box["rows"],
            }
        for listener in self._listeners:
            listener(summary)

    def _write_checkpoint(self, name: str, partition, applied_lsn: int) -> None:
        self._checkpoints[(name, partition.index)] = PartitionCheckpoint(
            data=partition.data,
            generation=partition.generation,
            applied_lsn=applied_lsn,
        )

    def _retry(self, point: str, fn, detail: str = ""):
        """Run ``fn`` behind a transient-fault point with capped backoff."""
        attempt = 0
        while True:
            try:
                self._check_write(point, detail)
                return fn()
            except WriteCrashError:
                raise
            except WriteError as exc:
                attempt += 1
                self.n_retries += 1
                if self.observer.enabled:
                    self.observer.inc("compaction_retries_total", point=point)
                if attempt > self.config.retry_limit:
                    raise
                backoff = min(
                    self.config.backoff_cap,
                    self.config.backoff_base * (2 ** (attempt - 1)),
                )
                self.clock += backoff
                if self.observer.enabled:
                    self.observer.event(
                        "write_retry",
                        point=point,
                        attempt=attempt,
                        backoff=backoff,
                        error=str(exc),
                    )

    # Internals: recovery ---------------------------------------------------
    def _replay(self, record) -> bool:
        """Apply one durable record to the rebuilt deltas (idempotently)."""
        payload = record.payload
        name = payload["table"]
        stored = self.store.table(name)
        applied = False
        if record.rtype == WAL_APPEND:
            rows = Table(
                dict(payload["columns"]),
                name=name,
                value_bytes=payload["value_bytes"],
            )
            for index, start, stop in payload["ranges"]:
                if record.lsn <= self._checkpoints[(name, index)].applied_lsn:
                    continue
                self._stage_append(
                    stored.partitions[index], rows, start, stop, record.lsn
                )
                applied = True
            if applied:
                self._box_union(name, rows)
        elif record.rtype == WAL_DELETE:
            for index, mask in payload["masks"].items():
                if record.lsn <= self._checkpoints[(name, index)].applied_lsn:
                    continue
                partition = stored.partitions[index]
                view = partition.read_view()
                self._box_union(name, view.select(mask))
                self._stage_delete(partition, mask, record.lsn)
                applied = True
        return applied

    def _verify_synopses(self) -> bool:
        from repro.cluster.synopsis import synopses_consistent

        for name in self._tables:
            stored = self.store.table(name)
            if not synopses_consistent(
                self.store.synopses(name), [p.data for p in stored.partitions]
            ):
                return False
        return True

    def _verify_columnar(self) -> bool:
        from repro.cluster.columnar import columnar_consistent

        for name, meta in self._tables.items():
            if not meta["columnar"]:
                continue
            stored = self.store.table(name)
            if not columnar_consistent(
                [p.columnar for p in stored.partitions],
                [p.data for p in stored.partitions],
            ):
                return False
        return True
