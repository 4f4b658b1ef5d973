"""The observer interface the SEA stack is instrumented against.

Instrumented code (engines, agents, routers, the cost meter) talks to an
:class:`Observer`.  The base class *is* the null implementation: every
hook is a no-op, ``enabled`` is False, and ``span`` returns a shared
no-op context manager — so the uninstrumented path costs one attribute
check and zero allocations per charge.  Hot loops additionally guard
with ``if observer.enabled:`` so even argument packing is skipped.

:class:`StackObserver` is the recording implementation, bundling the
three surfaces of :mod:`repro.obs`:

* ``trace`` — a :class:`~repro.obs.trace.TraceRecorder` (Chrome trace);
* ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  (Prometheus text exposition);
* ``events`` — an :class:`~repro.obs.events.EventLog` (JSONL).

It also implements ``on_charge``, turning every simulated cost charge
into metric increments, so byte/second accounting shows up in the
metrics without the engines doing anything beyond carrying the observer
on their :class:`~repro.common.accounting.CostMeter`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.events import DEFAULT_EVENT_CAPACITY, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import FlightRecorder, QueryProfile
from repro.obs.trace import Span, TraceRecorder


class _NullArgs(dict):
    """The span-args dict nobody will read: writes are discarded."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NULL_ARGS = _NullArgs()


class _NullSpan:
    """Reusable no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> Dict[str, Any]:
        # Shared, not ``{}``: a dict per null span is an allocation per
        # span whenever the interpreter's dict free list runs dry.
        return _NULL_ARGS

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Observer:
    """Null observer: every hook is free.  Subclass to record."""

    __slots__ = ()

    enabled = False

    @property
    def now(self) -> float:
        """Current global simulated time (always 0 when not recording)."""
        return 0.0

    # Tracing ----------------------------------------------------------------
    def span(
        self,
        name: str,
        meter: Any = None,
        category: str = "span",
        track: str = "main",
        **args: Any,
    ):
        """A no-op context manager; :class:`StackObserver` records a span."""
        return _NULL_SPAN

    def record_span(
        self,
        name: str,
        start: float,
        duration: float,
        category: str = "task",
        track: str = "main",
        **args: Any,
    ) -> Optional[Span]:
        return None

    # Cost charges (called by CostMeter on every charge) ---------------------
    def on_charge(
        self, kind: str, node_id: str, num_bytes: int, seconds: float
    ) -> None:
        pass

    # Metrics ----------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        pass

    def observe(self, name: str, value: float, **labels: str) -> None:
        pass

    # Events -----------------------------------------------------------------
    def event(self, type: str, **fields: Any) -> None:
        pass

    # Query profiles (the flight recorder; see repro.obs.profile) ------------
    def profile_begin(self, query: Any) -> None:
        pass

    def profile_note(self, kind: str, query: Any = None, **fields: Any) -> None:
        pass

    def profile_end(self, query: Any, **outcome: Any) -> Optional["QueryProfile"]:
        return None

    def profile_activate(self, query: Any):
        """No-op activation context (shared instance, no allocation)."""
        return _NULL_SPAN


NULL_OBSERVER = Observer()


class StackObserver(Observer):
    """Recording observer: simulated-clock trace + metrics + event log."""

    enabled = True

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        event_capacity: Optional[int] = DEFAULT_EVENT_CAPACITY,
        profiles: Optional[FlightRecorder] = None,
        profile_capacity: int = 4096,
    ) -> None:
        """Both in-memory logs are bounded by default so long-running
        sessions cannot grow without bound: ``event_capacity`` caps the
        decision log (None = unbounded) and ``profile_capacity`` caps the
        completed-profile buffer; drops are counted, never silent (see
        :meth:`snapshot`)."""
        self.trace = trace or TraceRecorder()
        self.metrics = metrics or MetricsRegistry()
        self.events = events or EventLog(capacity=event_capacity)
        self.profiles = profiles or FlightRecorder(capacity=profile_capacity)

    @property
    def now(self) -> float:
        return self.trace.now

    # Tracing ----------------------------------------------------------------
    def span(
        self,
        name: str,
        meter: Any = None,
        category: str = "span",
        track: str = "main",
        **args: Any,
    ):
        return self.trace.span(
            name, meter=meter, category=category, track=track, **args
        )

    def record_span(
        self,
        name: str,
        start: float,
        duration: float,
        category: str = "task",
        track: str = "main",
        **args: Any,
    ) -> Optional[Span]:
        return self.trace.record(
            name, start, duration, category=category, track=track, **args
        )

    # Cost charges -----------------------------------------------------------
    def on_charge(
        self, kind: str, node_id: str, num_bytes: int, seconds: float
    ) -> None:
        metrics = self.metrics
        metrics.counter(
            "sea_charges_total", "Simulated cost charges by kind"
        ).labels(kind=kind).inc()
        if num_bytes:
            metrics.counter(
                "sea_charge_bytes_total", "Simulated bytes by charge kind"
            ).labels(kind=kind).inc(num_bytes)
        metrics.counter(
            "sea_node_seconds_total", "Simulated node-occupancy seconds"
        ).inc(seconds)

    # Metrics ----------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        self.metrics.counter(name).labels(**labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.metrics.gauge(name).labels(**labels).set(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.metrics.histogram(name).labels(**labels).observe(value)

    # Events -----------------------------------------------------------------
    def event(self, type: str, **fields: Any) -> None:
        self.events.emit(type, ts=self.now, **fields)

    # Query profiles ---------------------------------------------------------
    def profile_begin(self, query: Any) -> None:
        self.profiles.begin(query)

    def profile_note(self, kind: str, query: Any = None, **fields: Any) -> None:
        self.profiles.note(kind, query=query, **fields)

    def profile_end(self, query: Any, **outcome: Any) -> Optional[QueryProfile]:
        return self.profiles.end(query, **outcome)

    def profile_activate(self, query: Any):
        return self.profiles.activate(query)

    # Exports ----------------------------------------------------------------
    def export_trace(self, path: str, overwrite: bool = False) -> str:
        return self.trace.export(path, overwrite=overwrite)

    def export_metrics(self, path: str, overwrite: bool = False) -> str:
        return self.metrics.export(path, overwrite=overwrite)

    def export_events(self, path: str, overwrite: bool = False) -> str:
        return self.events.export(path, overwrite=overwrite)

    def export_profiles(self, path: str, overwrite: bool = False) -> str:
        return self.profiles.export(path, overwrite=overwrite)

    def snapshot(self) -> Dict[str, float]:
        """Flat metrics snapshot plus trace/event/profile volumes.

        The shape benchmarks attach to ``benchmark.extra_info``.  Drop
        counters surface capacity pressure: nonzero values mean the
        bounded logs shed data and their capacities need raising.
        """
        out = self.metrics.as_dict()
        out["obs_spans_recorded"] = float(len(self.trace.spans))
        out["obs_events_recorded"] = float(len(self.events))
        out["obs_events_dropped"] = float(self.events.n_dropped)
        out["obs_profiles_recorded"] = float(len(self.profiles))
        out["obs_profiles_dropped"] = float(self.profiles.n_dropped)
        out["obs_simulated_seconds"] = float(self.trace.now)
        return out


def attach_observer(component: Any, observer: Observer) -> Any:
    """Attach ``observer`` to any component that supports observation.

    Prefers the component's own ``attach_observer`` method; falls back to
    setting an ``observer`` attribute.  Returns the observer for chaining.
    """
    hook = getattr(component, "attach_observer", None)
    if callable(hook) and hook is not attach_observer:
        hook(observer)
    else:
        component.observer = observer
    return observer
