"""A high-level session facade: the whole SEA system behind three calls.

For downstream users who want the paper's behaviour without wiring the
subsystems by hand::

    from repro.session import SEASession

    session = SEASession(n_nodes=8)
    session.load_table(my_table)              # or load_csv("data.csv")
    answer = session.sql("SELECT COUNT(*) FROM data "
                         "WHERE x0 BETWEEN 10 AND 20 AND x1 BETWEEN 5 AND 9")
    answer.value        # the analytical answer
    answer.mode         # "train" | "predicted" | "fallback"
    answer.explanation  # lazily built piecewise-linear explanation
    answer.profile      # EXPLAIN ANALYZE flight record (observer attached)

The session owns a simulated cluster, a store, the exact engine and one
SEA agent; it exposes SQL in, answers out, with per-query provenance and
cumulative savings statistics.  ``session.explain(sql)`` plans a query
without executing it; ``session.health()`` summarises SLO burn rates and
accuracy-drift anomalies over what was served since monitoring began.
The session keeps counters, never the answers it handed out.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.baselines.exact import ExactEngine
from repro.cluster.storage import DistributedStore
from repro.cluster.topology import ClusterTopology
from repro.common.accounting import CostReport
from repro.common.errors import ConfigurationError
from repro.common.validation import require
from repro.core.agent import AgentConfig, SEAAgent, ServedQuery
from repro.core.persistence import load_agent_models, save_agent_models
from repro.data.tabular import Table
from repro.explain.explanations import Explanation, ExplanationBuilder
from repro.obs.observer import Observer, StackObserver
from repro.obs.profile import QueryProfile, build_plan_profile
from repro.obs.slo import SLOMonitor, SLOPolicy
from repro.queries.query import AnalyticsQuery
from repro.queries.sql import parse_query


@dataclass
class SessionAnswer:
    """What the analyst gets back for one SQL statement."""

    query: AnalyticsQuery
    value: object
    mode: str
    cost: CostReport
    _session: Optional["SEASession"] = None
    _profile: Optional[QueryProfile] = None

    @property
    def explanation(self) -> Explanation:
        """A piecewise-linear explanation of answer vs query extent.

        Built from the agent's models when they cover the query (zero
        data access), from the exact engine otherwise.
        """
        if self._session is None:
            raise ConfigurationError(
                "this SessionAnswer is detached from its SEASession "
                "(e.g. it was unpickled); call session.explanation(answer.query) "
                "on a live session instead"
            )
        return self._session.explanation(self.query)

    @property
    def profile(self) -> QueryProfile:
        """The query's EXPLAIN ANALYZE flight record (plan + actuals).

        Recorded only while an observer is attached — profiling rides the
        same null-observer contract as spans and metrics, so detached
        sessions pay nothing and have nothing to show.
        """
        if self._profile is None:
            raise ConfigurationError(
                "no profile was recorded for this answer; attach an "
                "observer (session.attach_observer()) before submitting"
            )
        return self._profile

    def __repr__(self) -> str:
        return (
            f"SessionAnswer(value={self.value!r}, mode={self.mode!r}, "
            f"elapsed={self.cost.elapsed_sec:.4f}s)"
        )


class SEASession:
    """One analyst-facing session over a simulated SEA deployment."""

    def __init__(
        self,
        n_nodes: int = 8,
        replication: int = 1,
        config: Optional[AgentConfig] = None,
        partitions_per_node: int = 2,
        observer: Optional[Observer] = None,
        layout: str = "row",
        ingest: bool = False,
        epoch_seconds: float = 1.0,
    ) -> None:
        """``layout`` picks the default partition storage layout (DESIGN
        §11): ``"row"`` keeps the historical row-major matrices,
        ``"column"`` stores encoded columns and unlocks column-pruned
        scans — answers are byte-identical either way.  ``ingest=True``
        turns on the durable streaming write path (DESIGN §13):
        ``append_rows``/``delete_rows`` land in a write-ahead log plus
        per-partition deltas, readable immediately, and are folded into
        base partitions by the epoch compactor every ``epoch_seconds`` of
        simulated time (``session.advance(...)``/``session.flush()``).
        """
        require(n_nodes >= 1, "n_nodes must be >= 1")
        self.topology = ClusterTopology.single_datacenter(n_nodes)
        self.store = DistributedStore(
            self.topology, replication=replication, layout=layout
        )
        self.engine = ExactEngine(self.store)
        # The benchmark's tracer times the engine's shared pass here.
        self.executor = self.engine.executor
        self.agent = SEAAgent(self.engine, config or AgentConfig())
        self.partitions_per_node = partitions_per_node
        self._explainer = ExplanationBuilder(n_probes=13, span=(0.6, 1.4))
        self._closed = False
        self.observer: Optional[Observer] = None
        self.slo: Optional[SLOMonitor] = None
        if ingest:
            from repro.ingest import IngestConfig

            pipeline = self.store.enable_ingest(
                IngestConfig(epoch_seconds=epoch_seconds)
            )
            pipeline.on_epoch(self._on_ingest_epoch)
        if observer is not None:
            self.attach_observer(observer)

    # Observability ----------------------------------------------------------
    def attach_observer(
        self, observer: Optional[Observer] = None
    ) -> Observer:
        """Turn on observability for this session.

        Creates a :class:`~repro.obs.StackObserver` when none is given,
        wires it through the agent and the exact engine (spans, metrics,
        events for every subsequent query), and returns it.
        """
        if observer is None:
            observer = StackObserver()
        self.observer = observer
        self.agent.attach_observer(observer)
        if self.store.ingest is not None:
            self.store.ingest.attach_observer(observer)
        return observer

    def close(self) -> None:
        """Mark the session closed (idempotent).

        The session holds nothing that needs releasing; the flag is what
        ``ServingGateway.close()`` and ``with SEASession(...)`` leave
        behind for anyone asking :attr:`closed`.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; queries are still served."""
        return self._closed

    def __enter__(self) -> "SEASession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _require_observer(self) -> Observer:
        if self.observer is None or not self.observer.enabled:
            raise ConfigurationError(
                "no observer attached; call session.attach_observer() "
                "before running the workload you want to export"
            )
        return self.observer

    def export_trace(self, path: str, overwrite: bool = False) -> str:
        """Write the Chrome-trace JSON (Perfetto-viewable) to ``path``."""
        return self._require_observer().export_trace(path, overwrite=overwrite)

    def export_metrics(self, path: str, overwrite: bool = False) -> str:
        """Write the Prometheus-style metrics exposition to ``path``."""
        return self._require_observer().export_metrics(path, overwrite=overwrite)

    def export_events(self, path: str, overwrite: bool = False) -> str:
        """Write the structured decision log as JSON Lines to ``path``."""
        return self._require_observer().export_events(path, overwrite=overwrite)

    def export_profiles(self, path: str, overwrite: bool = False) -> str:
        """Write every recorded :class:`QueryProfile` as JSON Lines."""
        return self._require_observer().export_profiles(path, overwrite=overwrite)

    def export_observability(
        self, directory: str, overwrite: bool = False
    ) -> Dict[str, str]:
        """One-shot dump of every observability surface into ``directory``.

        Writes ``trace.json``, ``metrics.prom``, ``events.jsonl``,
        ``profiles.jsonl`` and ``health.json``; returns the written paths
        keyed by surface name.  Parent directories are created; existing
        files are refused unless ``overwrite=True``.
        """
        observer = self._require_observer()
        join = lambda name: os.path.join(directory, name)
        paths = {
            "trace": observer.export_trace(join("trace.json"), overwrite=overwrite),
            "metrics": observer.export_metrics(
                join("metrics.prom"), overwrite=overwrite
            ),
            "events": observer.export_events(
                join("events.jsonl"), overwrite=overwrite
            ),
            "profiles": observer.export_profiles(
                join("profiles.jsonl"), overwrite=overwrite
            ),
        }
        from repro.obs.export import prepare_export_path

        health_path = prepare_export_path(join("health.json"), overwrite=overwrite)
        with open(health_path, "w") as handle:
            json.dump(self.health(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        paths["health"] = health_path
        return paths

    # Data management -------------------------------------------------------
    def load_table(self, table: Table) -> None:
        """Place a table across the session's cluster."""
        self.store.put_table(
            table, partitions_per_node=self.partitions_per_node
        )

    def load_csv(self, path: str, name: Optional[str] = None) -> Table:
        """Load a numeric CSV (header row) and place it."""
        table = Table.from_csv(path, name=name)
        self.load_table(table)
        return table

    def notify_update(self, table_name: str, lows, highs) -> int:
        """Tell the agent base data changed inside the box (RT1.4-ii)."""
        return self.agent.notify_data_update(table_name, lows, highs)

    # Streaming ingestion (DESIGN §13) --------------------------------------
    @property
    def ingest(self):
        """The session's :class:`~repro.ingest.IngestPipeline`, or None."""
        return self.store.ingest

    def _require_ingest(self):
        pipeline = self.store.ingest
        if pipeline is None:
            raise ConfigurationError(
                "streaming ingestion is off; build the session with "
                "SEASession(..., ingest=True)"
            )
        return pipeline

    def append_rows(self, table_name: str, rows: Table) -> int:
        """Durably append ``rows``; visible to queries immediately.

        Returns the WAL log-sequence-number of the append (0 for an
        empty batch) — writes with lsn <= a later
        :class:`~repro.ingest.RecoveryReport`'s ``durable_lsn`` survive
        any crash.
        """
        return self._require_ingest().append(table_name, rows)

    def delete_rows(self, table_name: str, predicate) -> int:
        """Durably delete rows matching ``predicate(view) -> mask``."""
        return self._require_ingest().delete(table_name, predicate)

    def advance(self, seconds: float) -> float:
        """Advance simulated time; closes every epoch boundary crossed.

        The fault injector's clock (when one is attached) moves in step,
        so scheduled node outages and write-path faults share one
        timeline with the compactor.
        """
        pipeline = self._require_ingest()
        if self.store.faults is not None:
            self.store.faults.advance(seconds)
        return pipeline.advance(seconds)

    def flush(self) -> Dict[str, object]:
        """Force an epoch close now: compact deltas, sync + prune the WAL."""
        return self._require_ingest().flush()

    def recover(self):
        """Replay the durable WAL after a simulated crash (DESIGN §13)."""
        return self.store.recover()

    @property
    def staleness_bound(self) -> float:
        """Max simulated seconds a staged write waits before compaction."""
        return self._require_ingest().staleness_bound

    def _on_ingest_epoch(self, summary: Dict[str, object]) -> None:
        """Per-epoch maintenance: one drift notification per mutated table.

        Folding the epoch's writes into a single bounding-box
        invalidation (instead of one per write) is what keeps the E13
        retrain machinery epoch-rate rather than write-rate.
        """
        tables = summary.get("tables") or {}
        for name, info in tables.items():
            if info.get("rows"):
                self.agent.notify_data_update(
                    name, info["lows"], info["highs"]
                )

    # Querying ---------------------------------------------------------------
    def sql(self, statement: str) -> SessionAnswer:
        """Run one SQL-like statement through the agent."""
        return self.submit(parse_query(statement))

    def submit(self, query: AnalyticsQuery) -> SessionAnswer:
        """Run one already-built query through the agent."""
        record: ServedQuery = self.agent.submit(query)
        if self.slo is not None:
            self.slo.record(record, self.observer)
        return SessionAnswer(
            query=query,
            value=record.answer,
            mode=record.mode,
            cost=record.cost,
            _session=self,
            _profile=record.profile,
        )

    def sql_many(self, statements: Sequence[str]) -> List[SessionAnswer]:
        """Run many SQL-like statements as one batch.

        Answers, modes and per-query costs are identical to calling
        :meth:`sql` once per statement; the batch path amortises the real
        work (vectorized predictions, shared scans, answer cache).
        """
        return self.submit_batch([parse_query(s) for s in statements])

    def submit_batch(
        self, queries: Sequence[AnalyticsQuery]
    ) -> List[SessionAnswer]:
        """Run many already-built queries through the agent's batch path."""
        records = self.agent.submit_batch(queries)
        if self.slo is not None:
            for record in records:
                self.slo.record(record, self.observer)
        return [
            SessionAnswer(
                query=record.query,
                value=record.answer,
                mode=record.mode,
                cost=record.cost,
                _session=self,
                _profile=record.profile,
            )
            for record in records
        ]

    def explain(
        self, statement_or_query: Union[str, AnalyticsQuery]
    ) -> QueryProfile:
        """Plan a query without executing it (``EXPLAIN``).

        Returns a :class:`~repro.obs.QueryProfile` holding the zone-map
        scan plan (per-partition skip/synopsis/scan with bytes saved) and
        the agent's predicted serving decision — which path *would* run,
        with the driving error estimate and answer-cache status.  Nothing
        is read, nothing is charged, and no serving statistic moves.
        Works with or without an observer attached.
        """
        query = (
            parse_query(statement_or_query)
            if isinstance(statement_or_query, str)
            else statement_or_query
        )
        return build_plan_profile(query, self.engine, agent=self.agent)

    def explanation(self, query: AnalyticsQuery) -> Explanation:
        """An explanation for ``query`` (data-less when models cover it)."""
        predictor = self.agent.predictor(query)
        try:
            prediction = predictor.predict(query.vector())
        except Exception:
            prediction = None
        if prediction is not None and prediction.reliable:
            return self._explainer.from_predictor(query, predictor)
        return self._explainer.from_engine(query, self.engine)

    # Health -----------------------------------------------------------------
    def attach_slo(self, policy: Optional[SLOPolicy] = None) -> SLOMonitor:
        """Start (or replace) SLO monitoring for this session.

        The fresh monitor sees what is served from now on: the session
        keeps no record of earlier answers to replay, so attach before
        the workload that should be held to the policy.
        """
        self.slo = SLOMonitor(policy or SLOPolicy())
        return self.slo

    def health(self) -> Dict[str, object]:
        """Rolling SLO + accuracy-drift health since monitoring began.

        Lazily attaches a default :class:`SLOPolicy` when none is
        configured.  The snapshot carries per-class burn rates and
        latency quantiles plus the accuracy anomaly counters, and is
        logged as a ``slo_health`` decision event when an observer is
        attached.
        """
        if self.slo is None:
            self.attach_slo()
        snapshot = self.slo.health()
        snapshot["anomaly"] = self.agent.anomaly.summary()
        if self.observer is not None and self.observer.enabled:
            self.observer.event(
                "slo_health",
                status=snapshot["status"],
                queries_recorded=snapshot["queries_recorded"],
                classes={
                    name: info["status"]
                    for name, info in snapshot["classes"].items()
                },
            )
        return snapshot

    # Persistence ------------------------------------------------------------
    def save_models(self, path: str) -> int:
        """Persist the agent's learned models (bytes written)."""
        return save_agent_models(self.agent, path)

    def load_models(self, path: str) -> int:
        """Restore models saved by :meth:`save_models` (count loaded)."""
        return load_agent_models(self.agent, path)

    # Introspection ------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Serving statistics plus cumulative resource savings.

        ``estimated_seconds_saved`` and ``bytes_scanned_total`` come from
        the agent's running totals and are always present (0.0 before the
        first query), so tabulation never guards against missing keys.
        An attached observer's flat metrics snapshot (span/event volumes,
        charge counters, latency quantiles) is merged in under its names.
        """
        agent = self.agent
        stats = agent.stats()
        n_exact = agent.n_served - agent.n_predicted
        mean_exact = agent.exact_seconds_total / n_exact if n_exact else 0.0
        stats["estimated_seconds_saved"] = float(max(
            0.0, agent.n_predicted * mean_exact - agent.predicted_seconds_total
        ))
        stats["bytes_scanned_total"] = float(agent.bytes_scanned_total)
        if self.observer is not None and self.observer.enabled:
            snapshot = getattr(self.observer, "snapshot", None)
            if callable(snapshot):
                stats.update(snapshot())
        return stats
