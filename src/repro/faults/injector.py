"""The fault injector: a seeded, clocked interpreter of a fault schedule.

One :class:`FaultInjector` attaches to a
:class:`~repro.cluster.storage.DistributedStore` via ``attach_faults``.
From then on every metered read consults it:

* a read routed to a *down* node raises
  :class:`~repro.common.errors.NodeUnavailableError` **before** any cost
  is charged (a dead node refuses the connection — it serves no bytes,
  which is what keeps failover byte-identical to the no-fault run);
* a read served by a *flaky* node draws from the injector's seeded RNG
  **after** the charge and raises
  :class:`~repro.common.errors.TransientReadError` with the node's
  configured probability (the failed attempt's bytes are the visible
  retry overhead);
* a *straggler* node reports a slowdown multiplier engines apply to
  their disk-time term.

The injector owns its own simulated clock (independent of any one
query's :class:`~repro.common.CostMeter`, which restarts per execution):
``advance`` moves time forward and fires crash/recover events for every
schedule window boundary crossed.  ``crash``/``recover`` override the
schedule manually — an explicit ``recover`` cancels even an open-ended
scheduled window.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from repro.common.errors import (
    NodeUnavailableError,
    TransientReadError,
    WriteCrashError,
    WriteError,
)
from repro.common.rng import SeedLike, make_rng
from repro.common.validation import require
from repro.faults.schedule import FaultSchedule
from repro.obs.observer import NULL_OBSERVER, Observer


class FaultInjector:
    """Deterministic interpreter of one :class:`FaultSchedule`."""

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        seed: SeedLike = 0,
        observer: Optional[Observer] = None,
    ) -> None:
        self.schedule = schedule or FaultSchedule()
        self._rng = make_rng(seed)
        self.observer = observer or NULL_OBSERVER
        self.now = 0.0
        # Manual overrides win over the schedule.
        self._forced_down: Set[str] = set()
        self._forced_up: Set[str] = set()
        # Counters (also mirrored to the observer as fault_* metrics).
        self.n_unavailable = 0
        self.n_transient = 0
        # Write-path fault arming: crash windows fire once at the Nth
        # hit of a named point; transient write faults fail the next
        # ``count`` hits of a point and then clear.
        self._write_crashes: Dict[str, int] = {}
        self._write_faults: Dict[str, int] = {}
        self.n_write_faults = 0
        self.n_write_crashes = 0
        # Reentrant: advance/crash/recover call is_down/_note_* internally.
        # Guards the clock, the forced sets, the RNG stream, and the
        # counters so concurrent readers (a shared injector may be
        # consulted from several sessions, or from the gateway's two
        # threads) never tear state or split an RNG draw.
        self._lock = threading.RLock()

    def attach_observer(self, observer: Observer) -> None:
        """Emit crash/recover events and fault counters on ``observer``."""
        self.observer = observer

    # Clock -----------------------------------------------------------------
    def advance(self, seconds: float) -> float:
        """Advance the injector clock, firing window-boundary events."""
        require(seconds >= 0.0, f"cannot advance time by {seconds}")
        with self._lock:
            before = self.now
            self.now = before + seconds
            if self.observer.enabled:
                for window in self.schedule.crashes:
                    if before < window.start <= self.now:
                        self._note_down(window.node_id, at=window.start)
                    if before < window.end <= self.now:
                        self._note_up(window.node_id, at=window.end)
            return self.now

    def set_time(self, at: float) -> float:
        """Jump the clock to ``at`` (forward only)."""
        with self._lock:
            require(at >= self.now, f"clock cannot go back ({self.now} -> {at})")
            return self.advance(at - self.now)

    # Manual control --------------------------------------------------------
    def crash(self, node_id: str) -> None:
        """Force ``node_id`` down now, regardless of the schedule."""
        with self._lock:
            self._forced_up.discard(node_id)
            if node_id not in self._forced_down:
                self._forced_down.add(node_id)
                self._note_down(node_id, at=self.now)

    def recover(self, node_id: str) -> None:
        """Force ``node_id`` up now, cancelling any open crash window."""
        with self._lock:
            self._forced_down.discard(node_id)
            if self.is_down(node_id):
                self._forced_up.add(node_id)
                self._note_up(node_id, at=self.now)
            else:
                self._forced_up.add(node_id)

    # State queries ---------------------------------------------------------
    def is_down(self, node_id: str) -> bool:
        with self._lock:
            if node_id in self._forced_down:
                return True
            if node_id in self._forced_up:
                return False
            return self.schedule.down_at(node_id, self.now)

    def down_nodes(self, node_ids) -> List[str]:
        """The subset of ``node_ids`` currently down (input order)."""
        return [n for n in node_ids if self.is_down(n)]

    def slowdown(self, node_id: str) -> float:
        """Disk-time multiplier for ``node_id`` (1.0 when healthy)."""
        return self.schedule.slowdowns.get(node_id, 1.0)

    @property
    def active(self) -> bool:
        """True iff the injector can currently affect any read."""
        return bool(self._forced_down) or self.schedule.touches

    # Read-path hooks (called by DistributedStore) --------------------------
    def check_available(self, node_id: str, partition_id: str = "") -> None:
        """Raise :class:`NodeUnavailableError` if ``node_id`` is down."""
        with self._lock:
            if not self.is_down(node_id):
                return
            self.n_unavailable += 1
            if self.observer.enabled:
                self.observer.inc("fault_unavailable_reads_total", node=node_id)
        raise NodeUnavailableError(node_id, partition_id)

    def maybe_fail_read(self, node_id: str, partition_id: str = "") -> None:
        """Draw one seeded transient failure for a served read attempt."""
        rate = self.schedule.error_rates.get(node_id)
        if not rate:
            return
        with self._lock:
            failed = self._rng.random() < rate
            if failed:
                self.n_transient += 1
                if self.observer.enabled:
                    self.observer.inc(
                        "fault_transient_errors_total", node=node_id
                    )
        if failed:
            raise TransientReadError(node_id, partition_id)

    # Write-path hooks (called by the ingest pipeline) ----------------------
    def arm_write_crash(self, point: str, hits: int = 1) -> None:
        """Crash the simulated process at the ``hits``-th hit of ``point``.

        Known points: ``"wal_record"`` (mid-WAL-record), ``"delta_append"``
        (mid-append, after logging but before the delta apply completes)
        and ``"compaction"`` (mid-compaction, between per-partition
        checkpoint writes).  One-shot: the window disarms when it fires.
        """
        require(hits >= 1, f"crash window needs hits >= 1, got {hits}")
        with self._lock:
            self._write_crashes[point] = hits

    def inject_write_faults(self, point: str, count: int = 1) -> None:
        """Fail the next ``count`` hits of ``point`` with a transient
        :class:`WriteError` (the compactor's retry loop absorbs these)."""
        require(count >= 1, f"fault count must be >= 1, got {count}")
        with self._lock:
            self._write_faults[point] = count

    def check_write(self, point: str, detail: str = "") -> None:
        """One write-path fault-point hit: crash, fail transiently, or pass."""
        with self._lock:
            hits = self._write_crashes.get(point)
            if hits is not None:
                if hits <= 1:
                    del self._write_crashes[point]
                    self.n_write_crashes += 1
                    if self.observer.enabled:
                        self.observer.inc(
                            "fault_write_crashes_total", point=point
                        )
                        self.observer.event(
                            "write_crash", point=point, at=self.now
                        )
                    raise WriteCrashError(point, detail)
                self._write_crashes[point] = hits - 1
            remaining = self._write_faults.get(point, 0)
            if remaining > 0:
                if remaining == 1:
                    del self._write_faults[point]
                else:
                    self._write_faults[point] = remaining - 1
                self.n_write_faults += 1
                if self.observer.enabled:
                    self.observer.inc("fault_write_faults_total", point=point)
                raise WriteError(point, detail)

    def torn_cut(self, n_bytes: int) -> int:
        """Seeded length of the torn fragment of an in-flight WAL record.

        Strictly inside ``[1, n_bytes - 1]`` so a crash mid-record always
        leaves a detectable partial frame (never a clean boundary, never
        nothing) — the shape torn-tail detection exists to discard.
        """
        require(n_bytes >= 2, f"record too small to tear ({n_bytes} bytes)")
        with self._lock:
            return int(self._rng.integers(1, n_bytes))

    @property
    def write_faults_armed(self) -> bool:
        """True iff any write-path crash window or transient fault is armed."""
        with self._lock:
            return bool(self._write_crashes) or bool(self._write_faults)

    # Internals -------------------------------------------------------------
    def _note_down(self, node_id: str, at: float) -> None:
        if self.observer.enabled:
            self.observer.inc("fault_node_crashes_total", node=node_id)
            self.observer.event("node_crash", node=node_id, at=at)

    def _note_up(self, node_id: str, at: float) -> None:
        if self.observer.enabled:
            self.observer.inc("fault_node_recoveries_total", node=node_id)
            self.observer.event("node_recover", node=node_id, at=at)
