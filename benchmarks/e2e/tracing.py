"""Spans recorded from outside the program, at its public boundaries.

The traced run wraps public callables of the *live objects* the
benchmark built (gateway, tenant handles, agents, predictors, engine,
executor, store, session) with timing closures set as instance
attributes, and removes them afterwards; nothing under ``src/repro`` is
edited and nothing is recorded when tracing is off.  The one class-level
patch is the pair of map kernels in ``repro.engine.specs``: their
instances are built per query inside the engine, so there is no live
object to wrap.

A span is ``(id, name, start_ns, end_ns, parent, request_id)``.  The
current span lives in a ``ContextVar``: asyncio tasks each see their own
chain (concurrent ``submit`` coroutines interleave on one thread) and the
``sea-gateway`` serving thread starts from an empty context, so its
``serve.tenant_serve`` spans are roots that carry the request id of the
batch's first member.  A layer is the part of a span's name before the
dot; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.specs import BatchPartialSpec, QueryPartialSpec
from repro.queries.sql import parse_query

Span = Tuple[int, str, int, int, int, int]

#: The two calls the closed-loop harness makes for one read request.
HARNESS_SPANS = frozenset(("queries.parse", "serve.submit"))
#: Spans kept in the trace file (the layer summary covers all of them).
TRACE_FILE_SPANS = 20_000


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.request = contextvars.ContextVar("e2e_request", default=-1)
        self._current = contextvars.ContextVar("e2e_span", default=0)
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        self._parse = self.traced("queries.parse", parse_query)

    def parse_request(self, request_id: int, sql: str):
        """Parse ``sql`` here, timed, as request ``request_id``.

        Traced runs parse in the harness so that ``parse_query`` is timed
        at the call; the gateway accepts the parsed query as is.  The id
        rides on the query object, which is how a dispatch on the serving
        thread finds out whose batch it is running.
        """
        self.request.set(request_id)
        query = self._parse(sql)
        query.e2e_request = request_id
        return query

    # Wrappers ---------------------------------------------------------------
    def traced(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as one span; hooks count at the same boundary."""
        ids, current, request = self._ids, self._current, self.request
        record, now = self.spans.append, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                current.reset(token)
                record((span_id, name, start, end, parent, request.get()))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def traced_coroutine(self, name: str, fn: Callable) -> Callable:
        ids, current, request = self._ids, self._current, self.request
        record, now = self.spans.append, time.perf_counter_ns

        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = now()
                current.reset(token)
                record((span_id, name, start, end, parent, request.get()))

        return wrapper

    def wrap(self, obj: Any, attr: str, name: str, **hooks) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        original = getattr(obj, attr)
        make = (
            self.traced_coroutine
            if inspect.iscoroutinefunction(original)
            else self.traced
        )
        setattr(obj, attr, make(name, original, **hooks))
        self._undo.append(lambda: delattr(obj, attr))

    def patch_class(self, cls: type, attr: str, name: str) -> None:
        original = getattr(cls, attr)
        setattr(cls, attr, self.traced(name, original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def remove(self) -> None:
        """Take every wrapper off again (idempotent)."""
        while self._undo:
            self._undo.pop()()

    # Installation -----------------------------------------------------------
    def install(self, session, gateway, signature_queries: Iterable) -> None:
        """Wrap the public boundaries of one live deployment.

        ``signature_queries`` holds one parsed query per (table,
        aggregate, arity) signature the workload will send:
        ``agent.predictor(query)`` hands out (creating it exactly as the
        first request would) the predictor whose methods are then timed.
        """
        counts = self.counts
        self.wrap(gateway, "submit", "serve.submit")
        for tenant in gateway.tenants():
            handle = gateway.tenant(tenant)

            def adopt_batch(args, request=self.request, current=self._current):
                # A dispatch from the serve loop or the serving thread has
                # no enclosing submit span: name the batch after its first
                # member so its spans stay findable by request.
                if current.get() == 0 and args[0]:
                    request.set(getattr(args[0][0].query, "e2e_request", -1))

            self.wrap(handle, "serve", "serve.tenant_serve", before=adopt_batch)
            agent = handle.agent
            self.wrap(agent, "submit", "core.submit")
            self.wrap(agent, "submit_batch", "core.submit_batch")
            if agent.cache is not None:
                self.wrap(agent.cache, "lookup", "core.cache_lookup")
            for query in signature_queries:
                predictor = agent.predictor(query)
                self.wrap(predictor, "predict", "core.predict")
                self.wrap(predictor, "predict_batch", "core.predict")
                self.wrap(predictor, "observe", "core.learn")

        engine = session.engine
        ingest = session.ingest

        def note_dirty(args):
            if ingest is not None and ingest.pending_delta_rows > 0:
                counts["dirty_reads"] += 1

        def note_jobs(result, args):
            counts["batch_jobs"] += len(result)

        def note_plan(plan, args):
            if plan is not None:
                counts["plans"] += 1
                counts["partitions_scanned"] += plan.n_scanned
                counts["partitions_skipped"] += plan.n_skipped
                counts["partitions_synopsis"] += plan.n_covered

        def note_morsels(result, args):
            counts["morsels"] += len(result)

        self.wrap(engine, "execute", "engine.execute", before=note_dirty)
        self.wrap(engine, "execute_many", "engine.execute_many", after=note_jobs)
        self.wrap(engine, "plan_for", "engine.plan", after=note_plan)
        self.wrap(engine, "scan_for", "engine.plan")
        self.wrap(session.executor, "run", "parallel.run", after=note_morsels)
        store = session.store
        for attr in ("read_partition", "read_columns", "read_rows"):
            self.wrap(store, attr, "cluster.read")
        self.wrap(store, "compact_partition", "cluster.compact_partition")
        self.patch_class(QueryPartialSpec, "__call__", "engine.map_kernel")
        self.patch_class(BatchPartialSpec, "__call__", "engine.map_kernel")
        if ingest is not None:
            self.wrap(session, "append_rows", "ingest.append")
            self.wrap(session, "delete_rows", "ingest.delete")
            self.wrap(session, "advance", "ingest.advance")
            self.wrap(session, "recover", "ingest.recover")

    # Summaries --------------------------------------------------------------
    def summarize(self, concurrent: bool = False) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns.

        A ``serve.submit`` span without children is a request that was
        queued: the serve loop or the serving thread dispatched it in a
        root ``serve.tenant_serve`` span.  It is reported apart, as
        ``serve.submit.queued``.  In a closed loop its self time is its
        duration minus that dispatch (queue hop + batching window: the
        gateway's own doing); with ``concurrent`` requests the waits
        overlap each other, so they are not summed as anybody's self
        time — ``GatewayAnswer.queued_sec`` reports them instead.
        """
        child_ns: Dict[int, int] = defaultdict(int)
        dispatched: Dict[int, int] = {}
        for _, name, start, end, parent, request in self.spans:
            if parent:
                child_ns[parent] += end - start
            elif name == "serve.tenant_serve":
                dispatched[request] = end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        for span_id, name, start, end, _, request in self.spans:
            self_ns = end - start - child_ns.get(span_id, 0)
            if name == "serve.submit" and span_id not in child_ns:
                name = "serve.submit.queued"
                self_ns = (
                    0 if concurrent else max(0, self_ns - dispatched.get(request, 0))
                )
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += self_ns
        return dict(out)

    def harness_ns(self) -> int:
        """Total duration of the spans around the harness's own read calls."""
        return sum(
            end - start
            for _, name, start, end, parent, _ in self.spans
            if not parent and name in HARNESS_SPANS
        )

    def write(
        self, path: str, header: Dict[str, Any], summary: Dict[str, Dict[str, float]]
    ) -> None:
        """Dump the spans once, after the window."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request_id")
        document = dict(header)
        document["spans_total"] = len(self.spans)
        document["layers"] = summary
        document["counts"] = dict(self.counts)
        document["spans"] = [
            dict(zip(keys, span)) for span in self.spans[:TRACE_FILE_SPANS]
        ]
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")


def layer_shares(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Share of all self time owned by each layer (name before the dot).

    ``core.learn`` is kept apart as ``learn``: learning from an exact
    answer belongs to the scan side of a request, not to the hot path.
    """
    per_layer: Dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        layer = "learn" if name == "core.learn" else name.split(".", 1)[0]
        per_layer[layer] += row["self_ns"]
    total = sum(per_layer.values()) or 1.0
    return {layer: ns / total for layer, ns in per_layer.items()}
