"""A metrics registry: counters, gauges, and latency histograms.

Modelled on the Prometheus client data model — named metric *families*
that fan out into labelled children — with text exposition in the
Prometheus format, so the output of :meth:`MetricsRegistry.exposition`
pastes straight into any Prometheus-literate tooling.

Latency histograms reuse :class:`repro.ml.sketches.ReservoirSample` for
bounded-memory quantile estimation (the same primitive the AQP baselines
use), and expose as Prometheus *summaries*: ``{quantile="0.5"}`` sample
lines plus ``_sum``/``_count``.

**Reservoir sizing.**  Each labelled histogram child holds at most
``reservoir_size`` float samples (default 512 ≈ 4 KB), so histogram
memory is bounded no matter how many observations stream in — the
knob trades memory for tail fidelity, not correctness.  512 resolves
p99 to roughly ±1 percentile on stationary streams; quadruple it (2048)
when p99.9 matters or the stream is strongly bimodal, and drop to 128
for high-cardinality label sets where per-child memory dominates.  Pass
it per family: ``registry.histogram(name, reservoir_size=2048)`` — the
first registration wins, matching Prometheus client semantics.

The registry is thread-safe end to end: child creation (family and
label lookup) and every update (``inc``/``set``/``observe``) are
lock-protected, so the serving gateway's two threads can never lose
an increment or tear a histogram.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.common.validation import require
from repro.ml.sketches import ReservoirSample

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value (lock-protected)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        require(amount >= 0, "counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (lock-protected)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Reservoir-backed distribution: count, sum, and quantiles.

    ``observe`` touches several fields plus the reservoir, so updates
    and quantile reads share one lock — a torn observation would
    otherwise desynchronise ``count`` from the reservoir state.
    """

    __slots__ = ("count", "total", "_min", "_max", "_reservoir", "_lock")

    def __init__(self, reservoir_size: int = 512, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir = ReservoirSample(reservoir_size, seed=seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            self._reservoir.add(value)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the reservoir (nan when empty)."""
        with self._lock:
            sample = list(self._reservoir.sample)
        if not sample:
            return float("nan")
        return float(np.quantile(np.asarray(sample, dtype=float), q))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class MetricFamily:
    """One named metric with labelled children of a single type."""

    def __init__(self, name: str, kind: str, help_text: str = "", **child_kwargs) -> None:
        require(kind in ("counter", "gauge", "histogram"), f"bad kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self._child_kwargs = child_kwargs
        self._children: Dict[LabelKey, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child metric for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            # Check-then-create under the lock: two threads racing on a
            # fresh label set must agree on one child object.
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    self._children[key] = child
        return child

    def _new_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(**self._child_kwargs)

    # Unlabelled convenience: family acts as its own () child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def children(self) -> Iterable[Tuple[LabelKey, object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Registry of metric families with Prometheus text exposition."""

    def __init__(self, quantiles: Tuple[float, ...] = (0.5, 0.9, 0.99)) -> None:
        self.quantiles = quantiles
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # Family constructors ----------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> MetricFamily:
        return self._family(name, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> MetricFamily:
        return self._family(name, "gauge", help_text)

    def histogram(
        self, name: str, help_text: str = "", reservoir_size: int = 512
    ) -> MetricFamily:
        return self._family(
            name, "histogram", help_text, reservoir_size=reservoir_size
        )

    def _family(self, name: str, kind: str, help_text: str, **kwargs) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help_text, **kwargs)
                    self._families[name] = family
                    return family
        require(
            family.kind == kind,
            f"metric {name!r} already registered as {family.kind}",
        )
        if help_text and not family.help_text:
            family.help_text = help_text
        return family

    # Views ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{exposition-style name: value}`` snapshot.

        Histograms flatten to ``name_count``/``name_sum``/``name_p50``...
        Convenient for attaching to ``benchmark.extra_info``.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            for key, child in family.children():
                suffix = _render_labels(key)
                if isinstance(child, Histogram):
                    out[f"{family.name}_count{suffix}"] = float(child.count)
                    out[f"{family.name}_sum{suffix}"] = float(child.total)
                    for q in self.quantiles:
                        out[f"{family.name}_p{int(q * 100)}{suffix}"] = child.quantile(q)
                else:
                    out[f"{family.name}{suffix}"] = float(child.value)
        return out

    # Prometheus text format -------------------------------------------------
    def exposition(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            kind = "summary" if family.kind == "histogram" else family.kind
            lines.append(f"# TYPE {family.name} {kind}")
            for key, child in family.children():
                if isinstance(child, Histogram):
                    for q in self.quantiles:
                        value = child.quantile(q)
                        lines.append(
                            f"{family.name}"
                            f"{_render_labels(key, ('quantile', repr(q)))} "
                            f"{_fmt(value)}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} {_fmt(child.total)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(key)} {_fmt(child.count)}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def export(self, path: str, overwrite: bool = False) -> str:
        """Write the exposition text to ``path``; returns the path.

        Parent directories are created; an existing file is refused
        unless ``overwrite=True``.
        """
        from repro.obs.export import prepare_export_path

        path = prepare_export_path(path, overwrite=overwrite)
        with open(path, "w") as handle:
            handle.write(self.exposition())
        return path


def _fmt(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
