"""Coordinator-cohort execution: surgical access to specific rows.

RT3.2: "having a coordinating node accessing the (typically distributed)
index and then use it to surgically access small subsets of base data,
directly from the back-end storage, may be preferable to having an all-out
MapReduce processing of data nodes."

The coordinator sends a request to each cohort node that holds relevant
rows; each cohort performs point-reads of just those rows and ships them
back.  Cohorts work in parallel, so elapsed time is the slowest cohort.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.errors import PartitionLostError
from repro.common.validation import require
from repro.cluster.storage import DistributedStore, StoredTable, TablePartition
from repro.data.tabular import Table
from repro.engine.bdas import BDASStack
from repro.engine.pruning import prune_row_plan
from repro.engine.specs import RowTakeSpec
from repro.faults.policy import FailoverPolicy
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.queries.selections import Selection

_REQUEST_BYTES = 256


class CoordinatorEngine:
    """Direct, index-driven access through a coordinating node."""

    def __init__(
        self,
        store: DistributedStore,
        coordinator: Optional[str] = None,
        stack: Optional[BDASStack] = None,
        rates: Optional["CostRates"] = None,
        observer: Optional[Observer] = None,
        failover: Optional[FailoverPolicy] = None,
    ) -> None:
        self.store = store
        self.topology = store.topology
        self.coordinator = coordinator or self.topology.pick_coordinator()
        # Coordinator-cohort bypasses the engine layers: client -> storage.
        self.stack = stack or BDASStack(layers=("client", "coordinator"))
        self.rates = rates
        self.observer = observer or NULL_OBSERVER
        self.failover = failover or FailoverPolicy()

    def attach_observer(self, observer: Observer) -> None:
        """Record traces/metrics/events for subsequent fetches on ``observer``."""
        self.observer = observer

    def _meter(self, meter: Optional[CostMeter]) -> Tuple[CostMeter, Observer]:
        """(meter, observer) for one call, creating/wiring as needed."""
        obs = self.observer
        if meter is None:
            watcher = obs if obs.enabled else None
            meter = (
                CostMeter(self.rates, observer=watcher)
                if self.rates
                else CostMeter(observer=watcher)
            )
        elif not obs.enabled and meter.observer is not None:
            obs = meter.observer
        return meter, obs

    def _pruned(
        self,
        stored: StoredTable,
        rows_by_partition: Dict[int, Sequence[int]],
        selection: Optional[Selection],
        obs: Observer,
    ) -> Dict[int, Sequence[int]]:
        """Drop fetch requests against partitions disjoint from ``selection``.

        Callers opt in by passing the selection they will re-apply to the
        fetched rows — only then is dropping provably-non-matching rows
        answer-preserving.  Without synopses (or with stale ones) the plan
        passes through unchanged.
        """
        if selection is None:
            return rows_by_partition
        synopses = self.store.synopses(stored.name)
        if len(synopses) != len(stored.partitions):
            return rows_by_partition
        dirty = {
            index
            for index, partition in enumerate(stored.partitions)
            if getattr(partition, "dirty", False)
        }
        kept, pruned = prune_row_plan(
            synopses, rows_by_partition, selection, dirty=dirty or None
        )
        if pruned and obs.enabled:
            obs.inc(
                "prune_fetch_partitions_skipped_total", pruned, table=stored.name
            )
        return kept

    def fetch_rows(
        self,
        stored: StoredTable,
        rows_by_partition: Dict[int, Sequence[int]],
        meter: Optional[CostMeter] = None,
        charge_stack: bool = True,
        selection: Optional[Selection] = None,
        on_lost: str = "raise",
        lost: Optional[List[Tuple[int, int]]] = None,
    ) -> Tuple[Table, CostReport]:
        """Fetch the given ``{partition_index: row_indices}`` to the coordinator.

        Returns the concatenated rows and the cost report.  Partitions not
        mentioned are never touched — the essence of big-data-less access.

        Iterative operators that issue many fetch rounds within one query
        pass ``charge_stack=False`` after charging the stack once
        themselves; the stack is a per-query cost, not per-round.

        ``selection`` enables zone-map pruning of the plan itself: requests
        against partitions provably disjoint from the selection's bounding
        box are dropped before any cohort is contacted.  Pass it only when
        the fetched rows are filtered by the same selection afterwards.

        Under fault injection, point reads retry and fail over between
        replicas through :attr:`failover`.  A partition with no live
        replica raises :class:`PartitionLostError` (``on_lost="raise"``)
        or — with ``on_lost="skip"`` — drops its rows from the result and
        appends ``(partition_index, n_rows_lost)`` to ``lost``.
        """
        require(on_lost in ("raise", "skip"), f"unknown on_lost {on_lost!r}")
        meter, obs = self._meter(meter)
        rows_by_partition = self._pruned(stored, rows_by_partition, selection, obs)
        return self._fetch_one(
            stored,
            rows_by_partition,
            meter,
            obs,
            charge_stack,
            on_lost=on_lost,
            lost=lost,
        )

    def fetch_rows_many(
        self,
        stored: StoredTable,
        plans: Sequence[Dict[int, Sequence[int]]],
        charge_stack: bool = True,
        selections: Optional[Sequence[Optional[Selection]]] = None,
    ) -> List[Tuple[Table, CostReport]]:
        """Fetch many row plans, sharing each partition's point reads.

        The union of every plan's requested rows is materialised once per
        partition; each plan then replays its own charges (replica
        choice, transfers, point-read accounting) in plan order with a
        fresh meter, so entry ``i`` — rows and cost report — is identical
        to ``fetch_rows(stored, plans[i])``.

        ``selections`` (one per plan, None entries allowed) applies the
        same zone-map plan pruning as :meth:`fetch_rows`, *before* the
        shared union read, so a partition every plan pruned is never
        materialised at all.
        """
        if selections is not None:
            require(
                len(selections) == len(plans),
                f"{len(selections)} selections for {len(plans)} plans",
            )
            obs = self.observer
            plans = [
                self._pruned(stored, plan, sel, obs)
                for plan, sel in zip(plans, selections)
            ]
        faults = self.store.faults
        if faults is not None and faults.active:
            # Fault outcomes are drawn per read attempt, so shared-union
            # charge replay would not match the sequential path; each plan
            # runs its own failure-aware fetch while faults are active.
            return [
                self.fetch_rows(stored, plan, charge_stack=charge_stack)
                for plan in plans
            ]
        cache = self._shared_pieces(stored, plans)
        out: List[Tuple[Table, CostReport]] = []
        for plan in plans:
            meter, obs = self._meter(None)
            out.append(
                self._fetch_one(stored, plan, meter, obs, charge_stack, cache)
            )
        return out

    def _shared_pieces(
        self,
        stored: StoredTable,
        plans: Sequence[Dict[int, Sequence[int]]],
    ) -> Dict[int, Tuple[np.ndarray, Table]]:
        """Materialise each partition's union of requested rows.

        Returns the ``{partition_index: (sorted unique indices, rows)}``
        cache :meth:`_fetch_one` slices per plan.  The ``take`` calls are
        pure compute, one per partition in index order; every charge is
        replayed per plan afterwards.
        """
        union: Dict[int, List[np.ndarray]] = {}
        for plan in plans:
            for part_index, rows in plan.items():
                idx = np.asarray(rows, dtype=int)
                if idx.size:
                    union.setdefault(part_index, []).append(idx)
        return {
            part_index: RowTakeSpec(tuple(union[part_index]))(
                self._partition(stored, part_index)
            )
            for part_index in sorted(union)
        }

    def _fetch_one(
        self,
        stored: StoredTable,
        rows_by_partition: Dict[int, Sequence[int]],
        meter: CostMeter,
        obs: Observer,
        charge_stack: bool,
        cache: Optional[Dict[int, Tuple[np.ndarray, Table]]] = None,
        on_lost: str = "raise",
        lost: Optional[List[Tuple[int, int]]] = None,
    ) -> Tuple[Table, CostReport]:
        """One fetch round; with ``cache`` the rows come from a shared read."""
        faults = self.store.faults
        faulty = faults is not None and faults.active
        with obs.span(
            "coordinator_fetch", meter=meter, category="job", table=stored.name
        ):
            if charge_stack:
                meter.advance(
                    self.stack.charge_submission(
                        meter, self.coordinator, [self.coordinator]
                    )
                )
            pieces: List[Table] = []
            slowest = 0.0
            total_response_bytes = 0
            tracing = obs.enabled
            fan_start = obs.now if tracing else 0.0
            for part_index, row_indices in sorted(rows_by_partition.items()):
                partition = self._partition(stored, part_index)
                idx = np.asarray(row_indices, dtype=int)
                if idx.size == 0:
                    continue
                if faulty:
                    try:
                        piece, cohort, fault_extra = self.failover.read_rows(
                            self.store,
                            partition,
                            idx,
                            meter,
                            requester=self.coordinator,
                            obs=obs,
                        )
                    except PartitionLostError:
                        if on_lost == "skip":
                            if lost is not None:
                                lost.append((part_index, int(idx.size)))
                            continue
                        raise
                    seconds = meter.charge_transfer(
                        self.coordinator,
                        cohort,
                        _REQUEST_BYTES,
                        wan=self.topology.is_wan(self.coordinator, cohort),
                    )
                    seconds += fault_extra
                    seconds += (
                        idx.size
                        * partition.row_bytes
                        * meter.rates.point_read_penalty
                        * self.store.read_slowdown(cohort)
                        / meter.rates.disk_bytes_per_sec
                    )
                else:
                    # Read from the least-loaded replica (spreads hot
                    # partitions).
                    cohort = self.store.pick_replica(partition)
                    seconds = meter.charge_transfer(
                        self.coordinator,
                        cohort,
                        _REQUEST_BYTES,
                        wan=self.topology.is_wan(self.coordinator, cohort),
                    )
                    if cache is None:
                        piece = self.store.read_rows(
                            partition, idx, meter, node_id=cohort
                        )
                    else:
                        self.store.read_rows(
                            partition,
                            idx,
                            meter,
                            node_id=cohort,
                            materialize=False,
                        )
                        all_idx, union_table = cache[part_index]
                        piece = union_table.take(np.searchsorted(all_idx, idx))
                    seconds += (
                        idx.size
                        * partition.row_bytes
                        * meter.rates.point_read_penalty
                        / meter.rates.disk_bytes_per_sec
                    )
                seconds += meter.charge_transfer(
                    cohort,
                    self.coordinator,
                    piece.n_bytes,
                    wan=self.topology.is_wan(cohort, self.coordinator),
                )
                if tracing:
                    # Cohorts fetch in parallel: one trace track per cohort.
                    obs.record_span(
                        f"fetch:{partition.partition_id}",
                        fan_start,
                        seconds,
                        category="task",
                        track=cohort,
                        rows=int(idx.size),
                        bytes=piece.n_bytes,
                    )
                slowest = max(slowest, seconds)
                total_response_bytes += piece.n_bytes
                pieces.append(piece)
            # The coordinator's NIC serialises all cohort responses: elapsed is
            # at least the total ingest time, which is what makes fetching a
            # large fraction of a table through one coordinator a losing plan.
            ingest = total_response_bytes / meter.rates.lan_bytes_per_sec
            meter.advance(max(slowest, ingest))
            if charge_stack:
                meter.advance(
                    self.stack.charge_result_return(meter, self.coordinator)
                )
        if pieces:
            result = Table.concat(pieces, name=stored.name)
        else:
            first = stored.partitions[0].data
            result = first.slice_rows(0, 0)
        return result, meter.freeze()

    def scatter_gather(
        self,
        node_payloads: Dict[str, int],
        response_bytes: Dict[str, int],
        meter: Optional[CostMeter] = None,
        compute_bytes: Optional[Dict[str, int]] = None,
    ) -> CostReport:
        """Generic parallel round-trip: request out, compute, response back.

        Used by operators whose cohorts do local work (e.g. probe a local
        index) rather than raw row reads.  ``node_payloads`` and
        ``response_bytes`` give per-node request/response sizes;
        ``compute_bytes`` optionally charges local CPU work.
        """
        meter, obs = self._meter(meter)
        with obs.span("scatter_gather", meter=meter, category="job"):
            slowest = 0.0
            tracing = obs.enabled
            fan_start = obs.now if tracing else 0.0
            for node_id, req_bytes in node_payloads.items():
                wan = self.topology.is_wan(self.coordinator, node_id)
                seconds = meter.charge_transfer(
                    self.coordinator, node_id, req_bytes, wan=wan
                )
                if compute_bytes and node_id in compute_bytes:
                    seconds += meter.charge_cpu(node_id, compute_bytes[node_id])
                resp = response_bytes.get(node_id, 0)
                seconds += meter.charge_transfer(
                    node_id, self.coordinator, resp, wan=wan
                )
                if tracing:
                    obs.record_span(
                        f"gather:{node_id}",
                        fan_start,
                        seconds,
                        category="task",
                        track=node_id,
                        bytes=resp,
                    )
                slowest = max(slowest, seconds)
            meter.advance(slowest)
        return meter.freeze()

    def _partition(self, stored: StoredTable, index: int) -> TablePartition:
        require(
            0 <= index < len(stored.partitions),
            f"partition index {index} out of range for {stored.name}",
        )
        return stored.partitions[index]
