"""Online tuning of the gateway's micro-batching window.

Coalescing concurrent requests into one ``submit_batch`` call is how the
gateway converts PR-2's batched-serving speedup into open-loop goodput —
but a *fixed* batching window is the classic latency foot-gun: at low
load it adds pure waiting to every request, at high load it may be too
short to amortise anything.  :class:`AdaptiveBatcher` tunes the window
online from two windowed-median estimates:

* the **arrival rate** ``lambda`` — arrivals over the *time span* of
  the last ``history`` admitted timestamps, and
* the **per-query service time** ``s`` — median over the last
  ``history`` completed dispatches of host seconds / batch size.

Both estimators are chosen for robustness against the two ways a
single-threaded gateway lies to itself.  Rate over a span, not from
inter-arrival gaps: whenever the event loop stalls (a long inline
serve, a GC pause), pending arrivals wake *clustered* with microsecond
gaps between them, and any gap-based estimate explodes by orders of
magnitude — a feedback loop where the stall convinces the controller
it is overloaded, which causes batching delay, which causes more
clustering.  The window's span is unchanged by how arrivals bunch
inside it.  Median service, not mean: the serving path's service
distribution is wildly bimodal (a predicted answer is ~100x cheaper
than an exact fallback scan), and a single fallback spike must not
masquerade as saturation.

Their product ``rho = lambda * s`` is the offered utilisation of the
single serving loop, and it *sizes* a batching window.  It cannot decide
whether one should be opened at all, because it cannot tell one
closed-loop caller from saturation: a caller that sends its next
request the moment the previous answer arrives has, by construction, an
arrival rate of ``1 / service`` — ``rho`` reads ~0.9 for that lone
caller exactly as it does for an open loop offering 0.9 of capacity,
and a window opened for the lone caller waits for company that cannot
come (its next request is behind the answer the window is delaying).
What does tell them apart is the *outcome* of a window, so the rule is:

    a window must have gained arrivals recently to be opened;
    ``rate x service`` only sizes it.

The serve loop reports every batching decision through
:meth:`AdaptiveBatcher.note_window` — how many requests were queued
beside the one that woke it once the window ended.  After
``BARREN_LIMIT`` consecutive windows that gained nobody the gate shuts:
:meth:`~AdaptiveBatcher.window` reads zero whatever ``rho`` says, so
the gateway serves inline, exactly as at low load.  While shut, one
request in ``PROBE_EVERY`` is given a real window (a *probe*): the
caller's coroutine yields, anyone else waiting on the event loop gets
to enqueue, and the first window that gains an arrival re-opens the
gate — a second caller or an open-loop burst is batched again within
``PROBE_EVERY`` requests, and the lone caller pays one window in fifty.

With the gate open the policy is the sizing rule:

* ``rho <= passthrough_rho`` — the loop can keep up serving requests
  one at a time; the window collapses to **zero** and requests pass
  straight through (p50 is never worse than a direct submit, the E24
  low-rate gate);
* above that, the window is the expected time to accumulate a target
  batch of ``ceil(headroom * rho)`` requests at the observed rate,
  clamped to ``[0, max_window]`` — heavier overload grows the batch
  (more amortisation per call) while the clamp bounds the queueing
  delay batching itself can add.  The window is an upper bound on the
  wait: the gateway ends it the moment the target batch is queued.

An arrival after more than ``max_gap`` of silence resets the rate
window (a new burst episode, not a continuation), so one idle night
does not poison the estimate for the first burst after it.  Estimates
are recomputed lazily (at most once per ``refresh`` observations) so
they sit off the per-request hot path.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from typing import Deque

from repro.common.validation import require

#: Consecutive windows that gained no arrival before the gate shuts.
BARREN_LIMIT = 3
#: While the gate is shut, one arrival in this many probes with a real
#: window — the most a lone caller pays, and how soon company is found.
PROBE_EVERY = 50


class AdaptiveBatcher:
    """Windowed-median batching controller for the serve loop."""

    def __init__(
        self,
        max_window: float = 0.02,
        passthrough_rho: float = 0.75,
        headroom: float = 2.0,
        history: int = 32,
        refresh: int = 8,
        max_gap: float = 1.0,
    ) -> None:
        require(max_window >= 0.0, "max_window must be >= 0")
        require(0.0 < passthrough_rho, "passthrough_rho must be positive")
        require(headroom >= 1.0, "headroom must be >= 1")
        require(history >= 2, "history must be >= 2")
        require(refresh >= 1, "refresh must be >= 1")
        self.max_window = max_window
        self.passthrough_rho = passthrough_rho
        self.headroom = headroom
        self.max_gap = max_gap
        self._arrivals: Deque[float] = deque(maxlen=history)
        self._services: Deque[float] = deque(maxlen=history)
        self._refresh = refresh
        self._notes_since_refresh = 0
        self._rate = 0.0
        self._service = 0.0
        self._barren = 0  # consecutive windows that gained nobody
        self._since_window = 0  # arrivals since the last window outcome
        self.n_arrivals = 0
        self.n_batches = 0

    # Online observations ----------------------------------------------------
    def note_arrival(self, now: float) -> None:
        """Feed one admitted arrival timestamp into the rate window."""
        self.n_arrivals += 1
        self._since_window += 1
        if self._arrivals and now - self._arrivals[-1] > self.max_gap:
            self._arrivals.clear()  # new burst episode after idleness
        self._arrivals.append(now)
        self._note()

    def note_batch(self, size: int, host_seconds: float) -> None:
        """Feed one completed dispatch's per-query service time."""
        if size <= 0:
            return
        self.n_batches += 1
        self._services.append(max(host_seconds, 0.0) / size)
        self._note()

    def note_window(self, gained: int) -> None:
        """Feed one batching decision's outcome.

        ``gained`` is how many requests were queued beside the one that
        woke the serve loop once its window ended (reached the target,
        or ran out).  Any company re-opens the gate at once; a run of
        ``BARREN_LIMIT`` empty-handed windows shuts it.
        """
        self._since_window = 0
        self._barren = 0 if gained > 0 else self._barren + 1

    def _note(self) -> None:
        self._notes_since_refresh += 1
        if self._notes_since_refresh >= self._refresh:
            self._recompute()

    def _recompute(self) -> None:
        self._notes_since_refresh = 0
        if len(self._arrivals) >= 2:
            span = max(self._arrivals[-1] - self._arrivals[0], 1e-9)
            self._rate = (len(self._arrivals) - 1) / span
        if self._services:
            self._service = statistics.median(self._services)

    # Estimates --------------------------------------------------------------
    @property
    def arrival_rate(self) -> float:
        """Requests/second (0.0 until two arrivals have been seen)."""
        return self._rate

    @property
    def service_seconds(self) -> float:
        """Median per-query service time (0.0 until a dispatch completed)."""
        return self._service

    @property
    def rho(self) -> float:
        """Offered utilisation of the serving loop (rate x service)."""
        return self._rate * self._service

    def target_batch(self) -> int:
        """How many requests one dispatch should try to coalesce."""
        rho = self.rho
        if rho <= self.passthrough_rho:
            return 1
        return max(1, int(math.ceil(self.headroom * rho)))

    def window(self) -> float:
        """Seconds the serve loop may wait to let a batch form.

        Zero (pure pass-through) whenever the loop is keeping up, and
        whenever recent windows gained nobody (between probes);
        otherwise the expected accumulation time of the target batch,
        clamped so batching never adds more than ``max_window`` of
        deliberate delay.
        """
        target = self.target_batch()
        if target <= 1 or self._rate <= 0.0:
            return 0.0
        if self._barren >= BARREN_LIMIT and self._since_window < PROBE_EVERY:
            return 0.0
        return min(self.max_window, (target - 1) / self._rate)

    def snapshot(self) -> dict:
        self._recompute()
        return {
            "arrival_rate": self.arrival_rate,
            "service_seconds": self.service_seconds,
            "rho": self.rho,
            "window": self.window(),
            "target_batch": self.target_batch(),
            "barren_windows": self._barren,
            "n_arrivals": self.n_arrivals,
            "n_batches": self.n_batches,
        }
