"""Failover policy: retry with capped exponential backoff, then fail over.

The recovery protocol every engine threads its metered reads through when
a :class:`~repro.faults.injector.FaultInjector` is attached to the store:

1. order the partition's replicas by *preference* — the primary first for
   scan-style reads (matching the no-fault read path), or purely by
   least-served-bytes for point reads (matching ``pick_replica``'s load
   balancing);
2. every *down* replica ahead of the first live one costs a timed-out
   liveness probe (a small metered message from the requesting node plus
   ``detect_timeout_sec`` of latency) — dead nodes are discovered, not
   known for free;
3. on the serving replica, a :class:`TransientReadError` is retried up to
   ``max_attempts`` times with capped exponential backoff; the failed
   attempt's scan bytes stay charged (that *is* the retry overhead) and
   the backoff waits extend the task's latency;
4. a replica that exhausts its attempts is abandoned for the next live
   candidate — a *failover hop*, charged as a re-dispatched request and
   counted in ``fault_failovers_total``;
5. when no live replica remains (or every one exhausted its retries) the
   read raises :class:`~repro.common.errors.PartitionLostError`.

Every hop and retry is charged to the caller's
:class:`~repro.common.CostMeter` and surfaced through :mod:`repro.obs`
as ``fault_*`` counters, ``failover`` decision events, and retry spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.accounting import CostMeter
from repro.common.errors import (
    NodeUnavailableError,
    PartitionLostError,
    TransientReadError,
)
from repro.common.validation import require
from repro.obs.observer import NULL_OBSERVER, Observer

#: Payload of a liveness probe / re-dispatched read request.
_PROBE_BYTES = 64

#: Replica preference orders.
PREFER_PRIMARY = "primary"
PREFER_BALANCED = "balanced"


@dataclass(frozen=True)
class FailoverPolicy:
    """Tunable retry/backoff/failover knobs (shared by all engines)."""

    max_attempts: int = 3  # read attempts per replica (1 + retries)
    backoff_base_sec: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_sec: float = 1.0
    detect_timeout_sec: float = 0.25  # latency of discovering a dead node

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.backoff_base_sec >= 0.0, "backoff_base_sec must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require(self.backoff_cap_sec >= 0.0, "backoff_cap_sec must be >= 0")
        require(self.detect_timeout_sec >= 0.0, "detect_timeout_sec must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Wait before retry number ``attempt`` (0-based), capped."""
        return min(
            self.backoff_cap_sec,
            self.backoff_base_sec * self.backoff_factor**attempt,
        )

    # Replica ordering ------------------------------------------------------
    def preference(self, store, partition, prefer: str = PREFER_PRIMARY) -> List[str]:
        """All replicas (live or not) in the order reads would try them.

        ``primary``: the primary first (the no-fault scan target), then
        the replicas least-loaded first.  ``balanced``: every replica by
        served-bytes load, ties in placement order — element 0 is exactly
        what ``pick_replica`` returns when everything is up.
        """
        nodes = partition.all_nodes
        if prefer == PREFER_PRIMARY:
            replicas = sorted(nodes[1:], key=store.served_bytes)
            return [nodes[0]] + replicas
        return sorted(nodes, key=store.served_bytes)

    # Failure-aware reads ---------------------------------------------------
    def read_partition(
        self,
        store,
        partition,
        meter: CostMeter,
        requester: Optional[str] = None,
        obs: Observer = NULL_OBSERVER,
        prefer: str = PREFER_PRIMARY,
        columns=None,
    ):
        """Scan ``partition`` from the best live replica.

        Returns ``(data, serving_node, extra_seconds)`` where
        ``extra_seconds`` is the fault-handling latency (probe timeouts,
        backoff waits, re-dispatch transfers) the caller adds to the
        task's critical-path time.  Raises :class:`PartitionLostError`
        when no replica can serve.  With ``columns`` the read is a
        column-pruned encoded scan (``store.read_columns``) instead of a
        full partition read — same probe/retry/failover protocol, only
        the projected columns' encoded bytes are charged.
        """
        if columns is not None:
            attempt_fn = lambda node: store.read_columns(  # noqa: E731
                partition, columns, meter, node_id=node
            )
        else:
            attempt_fn = lambda node: store.read_partition(  # noqa: E731
                partition, meter, node_id=node
            )
        return self._read(
            store, partition, meter, requester, obs, prefer, attempt_fn
        )

    def read_rows(
        self,
        store,
        partition,
        row_indices,
        meter: CostMeter,
        requester: Optional[str] = None,
        obs: Observer = NULL_OBSERVER,
        prefer: str = PREFER_BALANCED,
    ):
        """Point-read ``row_indices`` of ``partition`` with failover.

        Returns ``(rows, serving_node, extra_seconds)``.
        """
        idx = np.asarray(row_indices, dtype=int)
        return self._read(
            store,
            partition,
            meter,
            requester,
            obs,
            prefer,
            lambda node: store.read_rows(partition, idx, meter, node_id=node),
        )

    # Core protocol ---------------------------------------------------------
    def _read(self, store, partition, meter, requester, obs, prefer, attempt_fn):
        faults = store.faults
        if faults is None or not faults.active:
            # No injector: behave exactly like the direct read path.
            node = partition.primary_node if prefer == PREFER_PRIMARY else (
                store.pick_replica(partition)
            )
            return attempt_fn(node), node, 0.0

        order = self.preference(store, partition, prefer)
        extra = 0.0
        # Dead preferred replicas are *discovered*: each costs one timed-out
        # probe from the requester before the read lands on a live node.
        first_live = None
        for node in order:
            if not faults.is_down(node):
                first_live = node
                break
            extra += self._charge_probe(store, meter, requester, node, obs)
        if first_live is None:
            self._note_lost(obs, partition, order)
            raise PartitionLostError(partition.partition_id, tried=order)

        live = [n for n in order if not faults.is_down(n)]
        for position, node in enumerate(live):
            if position > 0:
                # Failover hop: re-dispatch the read request to the next
                # candidate after the previous replica exhausted retries.
                extra += self._charge_probe(store, meter, requester, node, obs)
            for attempt in range(self.max_attempts):
                try:
                    result = attempt_fn(node)
                except TransientReadError:
                    wait = self.backoff(attempt)
                    extra += wait
                    if obs.enabled:
                        obs.inc("fault_retries_total", node=node)
                        obs.profile_note("retry", node=node)
                        obs.record_span(
                            f"retry:{partition.partition_id}",
                            obs.now,
                            wait,
                            category="fault",
                            track=node,
                            attempt=attempt + 1,
                        )
                    continue
                except NodeUnavailableError:
                    # Crashed between liveness listing and the read.
                    extra += self.detect_timeout_sec
                    break
                if node != order[0] and obs.enabled:
                    obs.inc("fault_failovers_total", node=node)
                    obs.profile_note("failover", serving=node)
                    obs.event(
                        "failover",
                        partition=partition.partition_id,
                        preferred=order[0],
                        serving=node,
                        attempts=attempt + 1,
                    )
                return result, node, extra
        self._note_lost(obs, partition, order)
        raise PartitionLostError(partition.partition_id, tried=order)

    def _charge_probe(self, store, meter, requester, node, obs) -> float:
        """One timed-out probe / re-dispatch toward ``node``; returns latency."""
        seconds = self.detect_timeout_sec
        if requester is not None:
            seconds += meter.charge_transfer(
                requester,
                node,
                _PROBE_BYTES,
                wan=store.topology.is_wan(requester, node),
            )
        if obs.enabled:
            obs.inc("fault_probes_total", node=node)
            obs.profile_note("probe", node=node)
        return seconds

    @staticmethod
    def _note_lost(obs: Observer, partition, order) -> None:
        if obs.enabled:
            obs.inc("fault_partitions_lost_total")
            obs.profile_note("lost", partition=partition.partition_id)
            obs.event(
                "partition_lost",
                partition=partition.partition_id,
                replicas=list(order),
            )
