"""The query flight recorder: per-query EXPLAIN / EXPLAIN ANALYZE profiles.

Raw spans, metrics and events (PR 1) tell you what the *system* did;
a :class:`QueryProfile` tells you what happened to *one query*: which
partitions its plan scanned, skipped, or answered from zone-map
synopses (and the bytes that saved), whether the answer cache hit, which
serving path the agent chose and the error estimate that drove it, every
fault probe / retry / failover hop and any degraded bounds, the count
of partition-level scan units (``morsels``), the per-phase simulated
time, and the final cost report.

The :class:`FlightRecorder` assembles profiles from ``profile_*`` hook
calls the instrumented stack makes through its
:class:`~repro.obs.observer.Observer` — all no-ops on the null observer,
so the detached path stays allocation-free.  Two routing modes exist:

* **keyed** notes carry the query object (``profile_note(kind,
  query=q, ...)``) and land on that query's open profile directly —
  used where the callsite knows the query (plans, cache lookups);
* **activated** notes carry no query and land on the profile of the
  innermost ``profile_activate(query)`` context — used deep in the
  engine (phase timings, failover retries) where only the job is known.

Determinism contract: everything folded into a profile comes from the
*serial charging path* — plans, cache state, the fault injector's seeded
draws, simulated phase times, cost reports.  Nothing host-timed ever
enters a profile, so the JSON and the ``EXPLAIN ANALYZE`` text are
byte-identical from run to run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.export import prepare_export_path

#: Partition classifications in a profile's plan tree.  The first three
#: mirror :mod:`repro.engine.pruning`; ``"lost"`` marks a partition the
#: fault layer could not read from any replica (degrade mode).
P_SCAN = "scan"
P_SKIP = "skip"
P_SYNOPSIS = "synopsis"
P_LOST = "lost"

#: A profile's ``kind``: planned-only vs plan + actuals.
EXPLAIN = "explain"
EXPLAIN_ANALYZE = "explain_analyze"


@dataclass
class PartitionProfile:
    """How the plan treated one stored partition.

    ``read_bytes`` is what execution actually read there (the full
    stored partition for a scan, the projected columns' encoded bytes
    for a column-pruned scan, the synopsis footprint for a
    short-circuit, zero for a skip or a lost partition), so
    per-partition rows always reconcile with the job's CostMeter
    charges.  ``n_bytes`` stays the decoded row-major footprint;
    ``stored_bytes`` is the on-disk footprint (== ``n_bytes`` for row
    layout, the encoded bytes for columnar layout).  ``delta_rows``
    counts staged ingest rows not yet compacted into the base image
    (nonzero only between a durable write and its epoch close); a
    nonzero value explains why this partition scanned instead of using
    its synopsis or column pruning.
    """

    index: int
    action: str  # "scan" | "skip" | "synopsis" | "lost"
    n_rows: int
    n_bytes: int
    read_bytes: int
    stored_bytes: int = -1  # -1 -> defaults to n_bytes (row layout)
    delta_rows: int = 0  # staged (uncompacted) ingest rows in the view

    def __post_init__(self) -> None:
        if self.stored_bytes < 0:
            self.stored_bytes = self.n_bytes

    @property
    def bytes_saved(self) -> int:
        """Decoded bytes the plan + layout avoided reading here.

        Zero for a plain row-major scan; positive when pruning skipped
        or short-circuited the partition *or* when encoding/column
        projection shrank what the scan had to read.
        """
        return self.n_bytes - self.read_bytes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "action": self.action,
            "n_rows": self.n_rows,
            "n_bytes": self.n_bytes,
            "read_bytes": self.read_bytes,
            "stored_bytes": self.stored_bytes,
            "delta_rows": self.delta_rows,
        }


@dataclass
class QueryProfile:
    """One query's flight record: the plan tree plus (optionally) actuals.

    ``kind=="explain"`` profiles come from :meth:`SEASession.explain` —
    the plan and the *expected* serving path, nothing executed.
    ``kind=="explain_analyze"`` profiles ride on every served answer
    (``answer.profile``) and add phase timings, fault history, the cost
    report and the answer itself.
    """

    query: str
    signature: str
    table: str
    aggregate: str
    kind: str = EXPLAIN_ANALYZE
    mode: Optional[str] = None  # "train" | "predicted" | "fallback"
    cache_hit: Optional[bool] = None  # None: cache disabled / not consulted
    error_estimate: Optional[float] = None
    error_threshold: Optional[float] = None
    quantum_id: Optional[int] = None
    novelty: Optional[float] = None
    reliable: Optional[bool] = None
    pruning: bool = False  # True iff a zone-map plan constrained the scan
    partitions: List[PartitionProfile] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)  # simulated sec
    fault_probes: int = 0
    fault_retries: int = 0
    fault_failovers: int = 0
    lost_partitions: List[str] = field(default_factory=list)
    served_despite_loss: bool = False
    degraded: Optional[Dict[str, Any]] = None
    cost: Optional[Dict[str, float]] = None
    answer: Optional[str] = None  # repr of the served value

    # Plan-tree aggregates ---------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def n_scanned(self) -> int:
        return sum(1 for p in self.partitions if p.action == P_SCAN)

    @property
    def n_skipped(self) -> int:
        return sum(1 for p in self.partitions if p.action == P_SKIP)

    @property
    def n_covered(self) -> int:
        return sum(1 for p in self.partitions if p.action == P_SYNOPSIS)

    @property
    def n_lost(self) -> int:
        return sum(1 for p in self.partitions if p.action == P_LOST)

    @property
    def morsels(self) -> int:
        """Partition-level work units of the scan (plan-derived)."""
        return self.n_scanned

    @property
    def bytes_scanned(self) -> int:
        """Partition bytes the plan's scans read; reconciles with the
        cost report's ``bytes_scanned`` on the exact path."""
        return sum(
            p.read_bytes for p in self.partitions if p.action == P_SCAN
        )

    @property
    def bytes_saved(self) -> int:
        """Bytes pruning (and synopsis short-circuits) avoided reading."""
        return sum(p.bytes_saved for p in self.partitions)

    # Serialization ----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict view (JSON-ready)."""
        return {
            "kind": self.kind,
            "query": self.query,
            "signature": self.signature,
            "table": self.table,
            "aggregate": self.aggregate,
            "mode": self.mode,
            "cache_hit": self.cache_hit,
            "error_estimate": _rounded(self.error_estimate),
            "error_threshold": _rounded(self.error_threshold),
            "quantum_id": self.quantum_id,
            "novelty": _rounded(self.novelty),
            "reliable": self.reliable,
            "pruning": self.pruning,
            "n_partitions": self.n_partitions,
            "n_scanned": self.n_scanned,
            "n_skipped": self.n_skipped,
            "n_covered": self.n_covered,
            "n_lost": self.n_lost,
            "morsels": self.morsels,
            "bytes_scanned": self.bytes_scanned,
            "bytes_saved": self.bytes_saved,
            "partitions": [p.as_dict() for p in self.partitions],
            "phases": {k: _rounded(v) for k, v in self.phases.items()},
            "fault_probes": self.fault_probes,
            "fault_retries": self.fault_retries,
            "fault_failovers": self.fault_failovers,
            "lost_partitions": list(self.lost_partitions),
            "served_despite_loss": self.served_despite_loss,
            "degraded": self.degraded,
            "cost": (
                {k: _rounded(v) for k, v in self.cost.items()}
                if self.cost is not None
                else None
            ),
            "answer": self.answer,
        }

    def to_json(self) -> str:
        """One deterministic JSON line (sorted keys, no whitespace)."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )

    # Rendering --------------------------------------------------------------
    def render(self, max_partitions: int = 64) -> str:
        """The deterministic ``EXPLAIN [ANALYZE]`` text for this profile."""
        analyzed = self.kind == EXPLAIN_ANALYZE
        lines = [
            ("EXPLAIN ANALYZE " if analyzed else "EXPLAIN ") + self.query
        ]
        mode = self.mode if self.mode is not None else "?"
        if not analyzed and self.mode is not None:
            mode += " (expected)"
        cache = (
            "off"
            if self.cache_hit is None
            else ("hit" if self.cache_hit else "miss")
        )
        lines.append(
            f"  signature={self.signature} mode={mode} cache={cache}"
        )
        if self.error_estimate is not None or self.error_threshold is not None:
            lines.append(
                "  agent: "
                f"error_estimate={_fmt(self.error_estimate)} "
                f"threshold={_fmt(self.error_threshold)} "
                f"reliable={_fmt(self.reliable)} "
                f"quantum={_fmt(self.quantum_id)} "
                f"novelty={_fmt(self.novelty)}"
            )
        if self.partitions:
            lines.append(
                f"  plan: table={self.table} pruning={_fmt(self.pruning)} "
                f"partitions={self.n_partitions} scan={self.n_scanned} "
                f"skip={self.n_skipped} synopsis={self.n_covered}"
                + (f" lost={self.n_lost}" if self.n_lost else "")
                + f" morsels={self.morsels}"
            )
            total = sum(p.n_bytes for p in self.partitions)
            saved = self.bytes_saved
            pct = 100.0 * saved / total if total else 0.0
            lines.append(
                f"    bytes: scanned={self.bytes_scanned} "
                f"saved={saved} ({pct:.1f}% pruned)"
            )
            for p in self.partitions[:max_partitions]:
                extra = ""
                if p.stored_bytes != p.n_bytes:
                    extra = f" enc={p.stored_bytes}"
                if p.action == P_SYNOPSIS:
                    extra += f" read={p.read_bytes}"
                elif p.action == P_SCAN and p.read_bytes != p.stored_bytes:
                    extra += f" read={p.read_bytes}"
                if p.bytes_saved:
                    extra += f" saved={p.bytes_saved}"
                if p.delta_rows:
                    extra += f" delta={p.delta_rows}"
                lines.append(
                    f"    [{p.index}] {p.action:<8} "
                    f"rows={p.n_rows} bytes={p.n_bytes}{extra}"
                )
            hidden = len(self.partitions) - max_partitions
            if hidden > 0:
                lines.append(f"    ... ({hidden} more partitions)")
        elif analyzed and self.mode == "predicted":
            lines.append("  plan: answered by the agent (no data access)")
        if self.phases:
            rendered = " ".join(
                f"{name}={_fmt(seconds)}"
                for name, seconds in self.phases.items()
            )
            lines.append(f"  phases: {rendered}")
        if self.fault_probes or self.fault_retries or self.fault_failovers:
            lines.append(
                f"  faults: probes={self.fault_probes} "
                f"retries={self.fault_retries} "
                f"failovers={self.fault_failovers} "
                f"lost={self.lost_partitions!r}"
            )
        if self.served_despite_loss:
            lines.append(
                "  served despite loss: exact fallback lost its base data; "
                "the model answered"
            )
        if self.degraded is not None:
            d = self.degraded
            lines.append(
                f"  degraded: coverage={_fmt(d.get('coverage'))} "
                f"bounded={_fmt(d.get('bounded'))} "
                f"bounds=[{_fmt(d.get('lower'))}, {_fmt(d.get('upper'))}]"
            )
        if self.cost is not None:
            c = self.cost
            lines.append(
                f"  cost: elapsed_sec={_fmt(c.get('elapsed_sec'))} "
                f"node_sec={_fmt(c.get('node_sec'))} "
                f"bytes_scanned={_fmt(c.get('bytes_scanned'))} "
                f"nodes_touched={_fmt(c.get('nodes_touched'))} "
                f"tasks_launched={_fmt(c.get('tasks_launched'))}"
            )
        if analyzed:
            lines.append(f"  answer: {self.answer}")
        return "\n".join(lines)


def _rounded(value: Optional[float]) -> Optional[float]:
    """Round floats to the event log's 9-dp convention (ints pass through)."""
    if value is None or isinstance(value, (bool, int)):
        return value
    return round(float(value), 9)


def _fmt(value: Any) -> str:
    if value is None:
        return "?"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(round(value, 9))
    return str(value)


class FlightRecorder:
    """Collects open profiles keyed by query identity, bounded when done.

    ``capacity`` bounds the *completed*-profile buffer the same way the
    event log is bounded: once full, finished profiles still return to
    the caller (``answer.profile`` keeps working) but are no longer
    retained for export, and ``n_dropped`` counts them.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.profiles: List[QueryProfile] = []
        self.n_dropped = 0
        self._open: Dict[int, QueryProfile] = {}
        self._stack: List[Optional[QueryProfile]] = []

    def __len__(self) -> int:
        return len(self.profiles)

    # Collection hooks -------------------------------------------------------
    def begin(self, query: Any) -> QueryProfile:
        """Open a profile for ``query`` (keyed by object identity)."""
        profile = QueryProfile(
            query=repr(query),
            signature=query.signature(),
            table=query.table_name,
            aggregate=query.aggregate.name,
        )
        self._open[id(query)] = profile
        return profile

    @property
    def current(self) -> Optional[QueryProfile]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def activate(self, query: Any) -> Iterator[None]:
        """Route un-keyed notes to ``query``'s profile inside the context.

        Activating ``None`` (or a query with no open profile) masks any
        outer activation, so unrelated engine work never pollutes an
        enclosing query's profile.
        """
        profile = self._open.get(id(query)) if query is not None else None
        self._stack.append(profile)
        try:
            yield
        finally:
            self._stack.pop()

    def note(self, kind: str, query: Any = None, **fields: Any) -> None:
        """Fold one observation into a profile (keyed or activated)."""
        if query is not None:
            profile = self._open.get(id(query))
        else:
            profile = self.current
        if profile is None:
            return
        if kind == "plan":
            profile.pruning = bool(fields.get("pruned", False))
            partitions = []
            for index, entry in enumerate(fields["partitions"]):
                # 4-tuples predate columnar layouts (stored == decoded);
                # 5-tuples add the encoded on-disk footprint; 6-tuples
                # add staged ingest delta rows.
                delta_rows = 0
                if len(entry) == 6:
                    (
                        action,
                        n_rows,
                        n_bytes,
                        read_bytes,
                        stored_bytes,
                        delta_rows,
                    ) = entry
                elif len(entry) == 5:
                    action, n_rows, n_bytes, read_bytes, stored_bytes = entry
                else:
                    action, n_rows, n_bytes, read_bytes = entry
                    stored_bytes = n_bytes
                partitions.append(
                    PartitionProfile(
                        index=index,
                        action=action,
                        n_rows=n_rows,
                        n_bytes=n_bytes,
                        read_bytes=read_bytes,
                        stored_bytes=stored_bytes,
                        delta_rows=delta_rows,
                    )
                )
            profile.partitions = partitions
        elif kind == "phase":
            name = fields["name"]
            profile.phases[name] = round(
                profile.phases.get(name, 0.0) + fields["seconds"], 12
            )
        elif kind == "cache":
            profile.cache_hit = fields["hit"]
        elif kind == "probe":
            profile.fault_probes += 1
        elif kind == "retry":
            profile.fault_retries += 1
        elif kind == "failover":
            profile.fault_failovers += 1
        elif kind == "lost":
            profile.lost_partitions.append(fields["partition"])
        elif kind == "served_despite_loss":
            profile.served_despite_loss = True
        elif kind == "degraded":
            profile.degraded = dict(fields)

    def end(
        self,
        query: Any,
        mode: Optional[str] = None,
        cost: Any = None,
        answer: Any = None,
        prediction: Any = None,
        error_threshold: Optional[float] = None,
    ) -> Optional[QueryProfile]:
        """Finish ``query``'s profile with the serving outcome."""
        profile = self._open.pop(id(query), None)
        if profile is None:
            return None
        profile.mode = mode
        profile.error_threshold = error_threshold
        if prediction is not None:
            profile.error_estimate = prediction.error_estimate
            profile.quantum_id = int(prediction.quantum_id)
            profile.novelty = float(prediction.novelty)
            profile.reliable = bool(prediction.reliable)
        if cost is not None:
            profile.cost = cost.as_dict()
        profile.answer = repr(answer)
        if len(self.profiles) >= self.capacity:
            self.n_dropped += 1
        else:
            self.profiles.append(profile)
        return profile

    # Export -----------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(p.to_json() for p in self.profiles) + (
            "\n" if self.profiles else ""
        )

    def export(self, path: str, overwrite: bool = False) -> str:
        """Write completed profiles as JSON Lines; returns the path."""
        path = prepare_export_path(path, overwrite=overwrite)
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return path


def build_plan_profile(query: Any, engine: Any, agent: Any = None) -> QueryProfile:
    """A plan-only (``EXPLAIN``) profile: no execution, no mutation.

    Reads the engine's zone-map plan and the stored table's partition
    footprints; when an ``agent`` is given, adds the serving path the
    agent *would* take (via its non-mutating :meth:`SEAAgent.preview`).
    Works without an observer attached.
    """
    profile = QueryProfile(
        query=repr(query),
        signature=query.signature(),
        table=query.table_name,
        aggregate=query.aggregate.name,
        kind=EXPLAIN,
    )
    plan = engine.plan_for(query)
    scan_for = getattr(engine, "scan_for", None)
    scan = scan_for(query) if scan_for is not None else None
    stored = engine.store.table(query.table_name)
    profile.pruning = plan is not None
    for index, partition in enumerate(stored.partitions):
        action = P_SCAN if plan is None else plan.actions[index]
        columnar = getattr(partition, "columnar", None)
        stored_bytes = int(
            getattr(partition, "stored_bytes", partition.n_bytes)
        )
        if action == P_SCAN:
            if scan is not None and columnar is not None:
                read_bytes = int(columnar.column_bytes(scan.columns))
            else:
                read_bytes = stored_bytes
        elif action == P_SYNOPSIS:
            read_bytes = int(plan.synopsis_bytes.get(index, 0))
        else:
            read_bytes = 0
        delta = getattr(partition, "delta", None)
        profile.partitions.append(
            PartitionProfile(
                index=index,
                action=action,
                n_rows=int(partition.n_rows),
                n_bytes=int(partition.n_bytes),
                read_bytes=read_bytes,
                stored_bytes=stored_bytes,
                delta_rows=int(delta.n_rows) if delta is not None else 0,
            )
        )
    if agent is not None:
        mode, prediction, cache_hit = agent.preview(query)
        profile.mode = mode
        profile.cache_hit = cache_hit
        profile.error_threshold = agent.config.error_threshold
        if prediction is not None:
            profile.error_estimate = prediction.error_estimate
            profile.quantum_id = int(prediction.quantum_id)
            profile.novelty = float(prediction.novelty)
            profile.reliable = bool(prediction.reliable)
    return profile
