"""The SEA agent: data-less analytics serving (Sec. III.B, Fig. 2).

"The key idea is to develop an intelligent agent and insert it between
user queries and the system. ... An initial subset of these queries are
sent to the system as before ... treated as 'training' queries.  Once the
models are trained, all future queries need not access any base data and
all answers are provided by the agent outside the BDAS."

:class:`SEAAgent` implements exactly this lifecycle:

1. *training phase* — the first ``training_budget`` queries pass through to
   the exact engine; the agent intercepts (query, answer) pairs and trains
   one :class:`~repro.core.predictor.DatalessPredictor` per
   (table, aggregate) signature;
2. *serving phase* — a query is answered from the models when the
   prediction is reliable and the estimated error is within
   ``error_threshold``; otherwise it falls back to the exact engine (and
   keeps learning from the exact answer).

Every served query carries a :class:`~repro.common.CostReport`, so
experiments can compare nodes touched, bytes scanned and latency between
the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.errors import NotTrainedError, PartitionLostError
from repro.common.validation import require, require_in_range
from repro.core.answer_cache import AnswerCache
from repro.core.answer_models import AnswerModelFactory
from repro.core.error import PrequentialErrorEstimator
from repro.core.maintenance import DriftDetector, DataUpdateMonitor
from repro.core.predictor import DatalessPredictor, Prediction
from repro.core.quantization import QuerySpaceQuantizer
from repro.faults.degraded import DegradedAnswer
from repro.obs.anomaly import AccuracyDriftMonitor
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.profile import QueryProfile
from repro.queries.query import AnalyticsQuery, Answer

AGENT_NODE = "sea-agent"


@dataclass
class AgentConfig:
    """Tunable policy of the agent (ablated in experiment E14)."""

    training_budget: int = 200
    error_threshold: float = 0.10
    model_family: str = "quadratic"
    n_quanta: int = 8
    max_quanta: int = 32
    grow_threshold: float = 2.0
    warmup: int = 32
    error_quantile: float = 0.8
    novelty_limit: float = 3.0
    keep_learning_on_fallback: bool = True
    drift_detection: bool = True
    answer_cache_size: int = 2048  # 0 disables the answer cache

    def __post_init__(self) -> None:
        require(self.training_budget >= 0, "training_budget must be >= 0")
        require_in_range(self.error_threshold, "error_threshold", 0.0, 1.0)
        require(self.answer_cache_size >= 0, "answer_cache_size must be >= 0")


@dataclass
class ServedQuery:
    """Record of how one query was served.

    ``profile`` is the query's flight record (EXPLAIN ANALYZE tree);
    populated only while an observer is attached.  ``served_seq`` is the
    record's position in its agent's serving order (0, 1, 2, ...); the
    agent keeps no record, so a replay sorts the caller's own by this.
    """

    query: AnalyticsQuery
    answer: Answer
    mode: str  # "train" | "predicted" | "fallback"
    cost: CostReport
    prediction: Optional[Prediction] = None
    profile: Optional[QueryProfile] = None
    served_seq: int = 0

    @property
    def used_base_data(self) -> bool:
        return self.mode != "predicted"


class SEAAgent:
    """Intercepting agent between analysts and the exact engine."""

    def __init__(
        self,
        exact_engine,
        config: Optional[AgentConfig] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.engine = exact_engine
        self.config = config or AgentConfig()
        self.observer = observer or NULL_OBSERVER
        self._predictors: Dict[str, DatalessPredictor] = {}
        self._drift: Dict[str, DriftDetector] = {}
        self.anomaly = AccuracyDriftMonitor()
        self.updates = DataUpdateMonitor()
        self.n_queries = 0
        # Running totals over every record returned (see _finish).
        self.n_served = 0
        self.n_predicted = 0
        self.n_fallback = 0
        self.bytes_scanned_total = 0.0
        self.exact_seconds_total = 0.0
        self.predicted_seconds_total = 0.0
        self._idle_cost: Optional[CostReport] = None  # see _agent_cost
        self.cache: Optional[AnswerCache] = (
            AnswerCache(self.config.answer_cache_size)
            if self.config.answer_cache_size > 0
            else None
        )

    def attach_observer(self, observer: Observer) -> None:
        """Record traces/metrics/events on ``observer`` (engine included)."""
        self.observer = observer
        hook = getattr(self.engine, "attach_observer", None)
        if callable(hook):
            hook(observer)

    # Serving ---------------------------------------------------------------
    def submit(self, query: AnalyticsQuery) -> ServedQuery:
        """Serve one analyst query through the Fig. 2 lifecycle."""
        self.n_queries += 1
        obs = self.observer
        if obs.enabled:
            obs.profile_begin(query)
            with obs.span(
                "query", category="query", signature=query.signature()
            ):
                record = self._serve(query)
        else:
            record = self._serve(query)
        return self._finish(record)

    # Batched serving ---------------------------------------------------------
    def submit_batch(self, queries) -> List[ServedQuery]:
        """Serve many queries at once; equivalent to N :meth:`submit` calls.

        Every answer, mode, and per-query cost report is identical to the
        sequential path — only the real (wall-clock) work is amortised:

        * training-phase and learning-free fallback queries execute as a
          shared-scan group through ``engine.execute_many``;
        * serving-phase predictions evaluate vectorized per signature
          (:meth:`DatalessPredictor.predict_batch`), recomputed only for a
          signature whose state a learning fallback just changed;
        * the answer cache is consulted/filled in the same per-query order
          as sequential serving, so hit/miss/eviction sequences match.
        """
        queries = list(queries)
        obs = self.observer
        if obs.enabled:
            for query in queries:
                obs.profile_begin(query)
            with obs.span("batch", category="batch", n=len(queries)):
                records = self._submit_batch_inner(queries)
            obs.observe("sea_batch_size", float(len(queries)))
        else:
            records = self._submit_batch_inner(queries)
        for record in records:
            self._finish(record)
        return records

    def _finish(self, record: ServedQuery) -> ServedQuery:
        """The recording tail of both submit paths: tell the observer,
        stamp ``served_seq``, fold the record into the running totals.
        The record is then the caller's alone — the agent keeps no
        reference to it, so its state does not grow with the requests."""
        obs = self.observer
        cost = record.cost
        if obs.enabled:
            prediction = record.prediction
            obs.inc("sea_queries_total", mode=record.mode)
            obs.observe("sea_query_latency_seconds", cost.elapsed_sec)
            obs.event(
                record.mode,  # "train" | "predicted" | "fallback"
                signature=record.query.signature(),
                error_estimate=(
                    prediction.error_estimate if prediction is not None else None
                ),
                elapsed_sec=cost.elapsed_sec,
                bytes_scanned=cost.bytes_scanned,
                nodes_touched=cost.nodes_touched,
            )
            record.profile = obs.profile_end(
                record.query,
                mode=record.mode,
                cost=cost,
                answer=record.answer,
                prediction=prediction,
                error_threshold=self.config.error_threshold,
            )
        record.served_seq = self.n_served
        self.n_served += 1
        self.bytes_scanned_total += cost.bytes_scanned
        if record.mode == "predicted":
            self.n_predicted += 1
            self.predicted_seconds_total += cost.elapsed_sec
        else:
            if record.mode == "fallback":
                self.n_fallback += 1
            self.exact_seconds_total += cost.elapsed_sec
        return record

    def _submit_batch_inner(self, queries: List[AnalyticsQuery]) -> List[ServedQuery]:
        n_train = max(
            0, min(len(queries), self.config.training_budget - self.n_queries)
        )
        records: List[Optional[ServedQuery]] = [None] * len(queries)
        if n_train:
            self._train_group(queries[:n_train], records, 0)
        if n_train < len(queries):
            self._serve_group(queries, records, n_train)
        return records  # type: ignore[return-value]

    def _train_group(
        self,
        group: List[AnalyticsQuery],
        records: List[Optional[ServedQuery]],
        offset: int,
    ) -> None:
        """Execute a training prefix as one shared-scan group, then learn.

        Exact execution never reads learned state, so running the scans
        first and replaying the observes in query order reproduces the
        sequential interleaving exactly.
        """
        results = self._execute_group(group)
        for position, (query, (answer, cost)) in enumerate(zip(group, results)):
            self.n_queries += 1
            predictor = self._predictor_for(query)
            learn, target = self._learn_target(answer)
            if learn:
                self._learn_from(query, predictor, target)
            records[offset + position] = ServedQuery(
                query=query, answer=answer, mode="train", cost=cost
            )

    def _serve_group(
        self,
        queries: List[AnalyticsQuery],
        records: List[Optional[ServedQuery]],
        start: int,
    ) -> None:
        """Serve queries[start:] (all past the training budget) in order."""
        indices = list(range(start, len(queries)))
        signatures = {i: queries[i].signature() for i in indices}
        vectors = {i: queries[i].vector() for i in indices}
        predictions: Dict[int, Optional[Prediction]] = {}
        computed: set = set()
        deferred: List[int] = []  # learning-free fallbacks, grouped at the end
        # Eager lookahead per signature: doubles while predictions survive,
        # resets after a learning event invalidates them — so a stable
        # serving run amortizes to a handful of matrix calls while a
        # learning-heavy run wastes at most CHUNK_MIN predictions per
        # fallback (prediction values are chunking-invariant either way).
        CHUNK_MIN, CHUNK_MAX = 1, 1024
        chunk_size: Dict[str, int] = {}
        obs = self.observer
        for position, i in enumerate(indices):
            query = queries[i]
            self.n_queries += 1
            predictor = self._predictor_for(query)
            if self.cache is not None:
                entry = self._cache_lookup(query, predictor)
                if entry is not None:
                    records[i] = ServedQuery(
                        query=query,
                        answer=entry.answer,
                        mode="predicted",
                        cost=self._agent_cost(),
                        prediction=entry.prediction,
                    )
                    continue
            if i not in computed:
                # Vectorize over the next not-yet-served queries of this
                # signature; the predictor is frozen until its next
                # learning event, so these match sequential predicts.
                chunk = chunk_size.get(signatures[i], CHUNK_MIN)
                peers = []
                for j in indices[position:]:
                    if signatures[j] == signatures[i] and j not in computed:
                        peers.append(j)
                        if len(peers) >= chunk:
                            break
                chunk_size[signatures[i]] = min(chunk * 2, CHUNK_MAX)
                batch = predictor.predict_batch(
                    np.stack([vectors[j] for j in peers])
                )
                for j, prediction in zip(peers, batch):
                    predictions[j] = prediction
                    computed.add(j)
            prediction = predictions.pop(i)
            if prediction is not None:
                acceptable = (
                    prediction.reliable
                    and prediction.error_estimate <= self.config.error_threshold
                    and not self._quantum_flagged(query, prediction.quantum_id)
                )
                if acceptable:
                    answer = (
                        prediction.scalar
                        if query.answer_dim == 1
                        else prediction.value
                    )
                    if self.cache is not None:
                        self.cache.store(
                            query,
                            prediction,
                            answer,
                            version=predictor.version_of(prediction.quantum_id),
                        )
                    records[i] = ServedQuery(
                        query=query,
                        answer=answer,
                        mode="predicted",
                        cost=self._agent_cost(),
                        prediction=prediction,
                    )
                    continue
            # Fallback. Without learning it has no state effects, so the
            # exact job can join the shared scan at the end of the batch;
            # with learning it must run now, and this signature's
            # outstanding predictions go stale.
            if not self.config.keep_learning_on_fallback:
                records[i] = ServedQuery(
                    query=query,
                    answer=None,
                    mode="fallback",
                    cost=None,  # filled by the shared scan below
                    prediction=prediction,
                )
                deferred.append(i)
                continue
            records[i] = self._execute_and_learn(
                query, predictor, mode="fallback", prediction=prediction
            )
            stale = [
                j for j in computed if signatures[j] == signatures[i]
            ]
            for j in stale:
                computed.discard(j)
                predictions.pop(j, None)
            chunk_size[signatures[i]] = CHUNK_MIN
        if deferred:
            try:
                results = self._execute_group([queries[i] for i in deferred])
            except PartitionLostError:
                # The shared scan hit a lost partition: re-run per query so
                # only the genuinely lost ones serve their predictions.
                results = [self._try_execute(queries[i]) for i in deferred]
            for i, result in zip(deferred, results):
                if isinstance(result, PartitionLostError):
                    records[i] = self._predicted_despite_loss(
                        queries[i], records[i].prediction, result
                    )
                    continue
                answer, cost = result
                records[i].answer = answer
                records[i].cost = cost

    def _cache_lookup(self, query: AnalyticsQuery, predictor: DatalessPredictor):
        """Version-validated answer-cache lookup (both serving paths).

        A hit is served only when the producing quantum's live version
        still matches the version stamped at store time.  A mismatch
        means a learning step, drift reset, or data-update invalidation
        mutated the quantum without its cache entries being evicted —
        the entry is dropped, ``cache_stale_served_total`` counts what
        *would* have been served stale, and the query falls through to a
        fresh prediction.  The invalidation discipline is supposed to
        make this branch dead code; tests pin the counter at zero.
        """
        entry = self.cache.lookup(query)
        if entry is not None and entry.version != predictor.version_of(
            entry.quantum_id
        ):
            self.cache.reject_stale(query, entry)
            if self.observer.enabled:
                self.observer.inc("cache_stale_served_total")
                self.observer.event(
                    "cache_stale_rejected",
                    signature=query.signature(),
                    quantum_id=entry.quantum_id,
                    cached_version=entry.version,
                    live_version=predictor.version_of(entry.quantum_id),
                )
            entry = None
        if self.observer.enabled:
            self.observer.inc(
                "sea_answer_cache_hits_total"
                if entry is not None
                else "sea_answer_cache_misses_total"
            )
            self.observer.profile_note("cache", query=query, hit=entry is not None)
        return entry

    def _try_execute(self, query: AnalyticsQuery):
        """One exact execution; a lost partition is returned, not raised."""
        try:
            return self.engine.execute(query)
        except PartitionLostError as error:
            return error

    def _execute_group(self, group: List[AnalyticsQuery]):
        """(answer, cost) per query, shared-scan when the engine supports it."""
        many = getattr(self.engine, "execute_many", None)
        if callable(many) and len(group) > 1:
            return many(group)
        return [self.engine.execute(query) for query in group]

    def _serve(self, query: AnalyticsQuery) -> ServedQuery:
        predictor = self._predictor_for(query)
        if self.n_queries <= self.config.training_budget:
            return self._execute_and_learn(query, predictor, mode="train")
        return self._serve_trained(query, predictor)

    def _serve_trained(
        self, query: AnalyticsQuery, predictor: DatalessPredictor
    ) -> ServedQuery:
        if self.cache is not None:
            entry = self._cache_lookup(query, predictor)
            if entry is not None:
                return ServedQuery(
                    query=query,
                    answer=entry.answer,
                    mode="predicted",
                    cost=self._agent_cost(),
                    prediction=entry.prediction,
                )
        vector = query.vector()
        try:
            prediction = predictor.predict(vector)
        except NotTrainedError:
            return self._execute_and_learn(query, predictor, mode="fallback")
        acceptable = (
            prediction.reliable
            and prediction.error_estimate <= self.config.error_threshold
            and not self._quantum_flagged(query, prediction.quantum_id)
        )
        if not acceptable:
            record = self._execute_and_learn(
                query, predictor, mode="fallback", prediction=prediction
            )
            return record
        answer = (
            prediction.scalar if query.answer_dim == 1 else prediction.value
        )
        if self.cache is not None:
            self.cache.store(
                query,
                prediction,
                answer,
                version=predictor.version_of(prediction.quantum_id),
            )
        return ServedQuery(
            query=query,
            answer=answer,
            mode="predicted",
            cost=self._agent_cost(),
            prediction=prediction,
        )

    def _execute_and_learn(
        self,
        query: AnalyticsQuery,
        predictor: DatalessPredictor,
        mode: str,
        prediction: Optional[Prediction] = None,
    ) -> ServedQuery:
        try:
            answer, cost = self.engine.execute(query)
        except PartitionLostError as error:
            if mode == "fallback":
                # The exact fallback lost its base data; the model is the
                # best — and only — remaining source of an answer (the
                # paper's availability claim).  Without even a prediction
                # (untrained signature) the loss propagates.
                return self._predicted_despite_loss(query, prediction, error)
            raise
        learn = mode == "train" or self.config.keep_learning_on_fallback
        if learn:
            learn, target = self._learn_target(answer)
            if learn:
                if prediction is not None:
                    self._observe_residual(query, prediction, target)
                self._learn_from(query, predictor, target)
        return ServedQuery(
            query=query, answer=answer, mode=mode, cost=cost, prediction=prediction
        )

    def _observe_residual(
        self,
        query: AnalyticsQuery,
        prediction: Prediction,
        target: Answer,
    ) -> None:
        """Feed one predicted-vs-exact residual to the drift monitor.

        A learning fallback is the one place both sides exist: the
        prediction the agent declined to serve and the exact answer that
        replaced it.  Residuals are relative (scaled by the exact
        answer's magnitude) so the z-score window is comparable across
        query extents; anomalies surface on the decision log.
        """
        try:
            predicted = np.asarray(prediction.value, dtype=float).ravel()
            actual = np.asarray(target, dtype=float).ravel()
        except (TypeError, ValueError):
            return
        if predicted.shape != actual.shape or predicted.size == 0:
            return
        scale = max(float(np.linalg.norm(actual)), 1e-9)
        if predicted.size == 1:
            residual = float(predicted[0] - actual[0]) / scale
        else:
            residual = float(np.linalg.norm(predicted - actual)) / scale
        if not np.isfinite(residual):
            return
        event = self.anomaly.observe(
            query.signature(), prediction.quantum_id, residual
        )
        if event is not None and self.observer.enabled:
            self.observer.inc("sea_accuracy_anomalies_total")
            self.observer.event(
                "accuracy_anomaly",
                signature=event.signature,
                quantum_id=event.quantum_id,
                residual=round(event.residual, 9),
                zscore=round(event.zscore, 9),
                window_mean=round(event.mean, 9),
                window_std=round(event.std, 9),
                window_n=event.n,
            )

    def _predicted_despite_loss(
        self,
        query: AnalyticsQuery,
        prediction: Optional[Prediction],
        error: PartitionLostError,
    ) -> ServedQuery:
        """Serve the model's prediction when exact fallback lost its data."""
        if prediction is None:
            raise error
        if self.observer.enabled:
            self.observer.inc("sea_served_despite_loss_total")
            self.observer.event(
                "served_despite_loss",
                signature=query.signature(),
                partition=error.partition_id,
            )
            self.observer.profile_note("served_despite_loss", query=query)
        answer = prediction.scalar if query.answer_dim == 1 else prediction.value
        return ServedQuery(
            query=query,
            answer=answer,
            mode="predicted",
            cost=self._agent_cost(),
            prediction=prediction,
        )

    def _learn_target(self, answer: Answer):
        """(should_learn, target) for one exact-engine answer.

        A :class:`~repro.faults.DegradedAnswer` at full coverage is an
        exactly recovered value — safe to learn from.  Below full
        coverage the value is missing lost partitions' contributions;
        observing it would poison the predictor, so the agent serves it
        to the caller but learns nothing.
        """
        if isinstance(answer, DegradedAnswer):
            if answer.coverage < 1.0:
                if self.observer.enabled:
                    self.observer.inc("sea_degraded_observations_skipped_total")
                return False, answer.value
            return True, answer.value
        return True, answer

    def _learn_from(
        self, query: AnalyticsQuery, predictor: DatalessPredictor, answer: Answer
    ) -> None:
        """One learning step; any observation can shift the predictor's
        quanta, models, or error estimates, so the signature's cached
        answers can no longer be trusted to match a fresh prediction."""
        quantum_id = predictor.observe(query.vector(), answer)
        if self.config.drift_detection:
            self._drift_check(query, predictor, quantum_id)
        if self.cache is not None:
            self.cache.invalidate_signature(query.signature())

    # Data-update notifications (RT1.4-ii) ------------------------------------
    def notify_data_update(self, table_name: str, lows, highs) -> int:
        """Tell the agent base data changed inside the given bounding box.

        Every quantum of every predictor for ``table_name`` whose centroid
        subspace overlaps the box is invalidated (its model resets; its
        next queries fall back to exact and retrain).  Returns the number
        of invalidated quanta.
        """
        invalidated = 0
        for signature, predictor in self._predictors.items():
            if not signature.startswith(f"{table_name}:"):
                continue
            quantum_ids = self.updates.invalidate_overlapping_ids(
                predictor, np.asarray(lows, float), np.asarray(highs, float)
            )
            invalidated += len(quantum_ids)
            if self.cache is not None and quantum_ids:
                self.cache.evict_quanta(signature, quantum_ids)
        if self.observer.enabled:
            self.observer.inc("sea_quanta_invalidated_total", invalidated)
            self.observer.event(
                "data_update", table=table_name, invalidated_quanta=invalidated
            )
        return invalidated

    # Introspection ---------------------------------------------------------
    def preview(self, query: AnalyticsQuery):
        """``(expected_mode, prediction, cache_hit)`` without serving.

        The plan-only half of ``EXPLAIN``: reproduces the serving
        decision the next :meth:`submit` of this query would make, while
        mutating *nothing* — no counters move, the cache is peeked (not
        promoted), and no predictor is created for an unseen signature.
        ``cache_hit`` is None when the cache is disabled.
        """
        if self.n_queries < self.config.training_budget:
            return "train", None, None
        cache_hit = None
        if self.cache is not None:
            entry = self.cache.peek(query)
            if entry is not None:
                return "predicted", entry.prediction, True
            cache_hit = False
        predictor = self._predictors.get(query.signature())
        if predictor is None:
            return "fallback", None, cache_hit
        try:
            prediction = predictor.predict(query.vector())
        except NotTrainedError:
            return "fallback", None, cache_hit
        acceptable = (
            prediction.reliable
            and prediction.error_estimate <= self.config.error_threshold
            and not self._quantum_flagged(query, prediction.quantum_id)
        )
        mode = "predicted" if acceptable else "fallback"
        return mode, prediction, cache_hit

    def state_bytes(self) -> int:
        """Total learned-state footprint across predictors (experiment E4)."""
        return sum(p.state_bytes() for p in self._predictors.values())

    def predictor(self, query: AnalyticsQuery) -> DatalessPredictor:
        """The predictor serving this query's (table, aggregate) signature."""
        return self._predictor_for(query)

    def adopt_predictor(
        self, signature: str, predictor: DatalessPredictor
    ) -> None:
        """Install an externally built/restored predictor for a signature.

        Used by persistence (restored state) and by federation-style model
        hand-offs; the matching drift detector is (re)created fresh.
        """
        self._predictors[signature] = predictor
        self._drift[signature] = DriftDetector()
        if self.cache is not None:
            self.cache.invalidate_signature(signature)

    def stats(self) -> Dict[str, float]:
        """Aggregate serving statistics over everything served so far."""
        total = self.n_served
        stats = {
            "queries": float(total),
            "predicted": float(self.n_predicted),
            "fallback": float(self.n_fallback),
            "trained": float(total - self.n_predicted - self.n_fallback),
            "dataless_fraction": self.n_predicted / total if total else 0.0,
            "state_bytes": float(self.state_bytes()),
        }
        if self.cache is not None:
            stats.update(self.cache.stats())
        stats.update(self.anomaly.summary())
        return stats

    # Internals ---------------------------------------------------------------
    def _predictor_for(self, query: AnalyticsQuery) -> DatalessPredictor:
        signature = query.signature()
        if signature not in self._predictors:
            config = self.config
            self._predictors[signature] = DatalessPredictor(
                answer_dim=query.answer_dim,
                quantizer=QuerySpaceQuantizer(
                    n_quanta=config.n_quanta,
                    grow_threshold=config.grow_threshold,
                    max_quanta=config.max_quanta,
                    warmup=config.warmup,
                ),
                factory=AnswerModelFactory(config.model_family),
                error_estimator=PrequentialErrorEstimator(
                    quantile=config.error_quantile
                ),
                novelty_limit=config.novelty_limit,
            )
            self._drift[signature] = DriftDetector()
        return self._predictors[signature]

    def _drift_check(
        self, query: AnalyticsQuery, predictor: DatalessPredictor, quantum_id: int
    ) -> None:
        detector = self._drift[query.signature()]
        if detector.check(predictor.errors, quantum_id):
            predictor.reset_quantum(quantum_id)
            if self.observer.enabled:
                self.observer.inc("sea_drift_detections_total")
                self.observer.event(
                    "drift",
                    signature=query.signature(),
                    quantum_id=quantum_id,
                    action="reset_quantum",
                )

    def _quantum_flagged(self, query: AnalyticsQuery, quantum_id: int) -> bool:
        detector = self._drift.get(query.signature())
        return detector.is_flagged(quantum_id) if detector else False

    def _agent_cost(self) -> CostReport:
        """Cost of a model-served answer: agent-local compute only.

        The query crosses the thin agent interface and never reaches the
        BDAS: no scans, no shuffles, no data nodes.  One millisecond of
        client<->agent dispatch plus model inference — in line with the
        "de facto insensitive to data sizes" claim of Sec. III.B.

        The bill is the same ten numbers for every model-served answer,
        so with nobody recording it is metered once per agent and copied
        (callers own, and may mutate, the report they get).  With an
        observer attached every answer is metered, because the span and
        the charge are themselves what gets recorded.
        """
        if self.observer.enabled:
            return self._meter_agent_cost()
        if self._idle_cost is None:
            self._idle_cost = self._meter_agent_cost()
        return self._idle_cost.copy()

    def _meter_agent_cost(self) -> CostReport:
        obs = self.observer
        meter = CostMeter(observer=obs if obs.enabled else None)
        with obs.span("agent_inference", meter=meter, category="agent"):
            meter.charge_cpu(AGENT_NODE, 4096)  # model inference
            meter.advance(1e-3)
        return meter.freeze()
