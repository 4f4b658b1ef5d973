"""Async multi-tenant serving gateway with adaptive micro-batching.

:class:`ServingGateway` is the front door for many concurrent clients
over one :class:`~repro.session.SEASession`'s cluster.  One asyncio
event loop admits requests, one serve-loop task schedules them, and one
dedicated serving thread executes coalesced batches — the engine itself
never sees concurrency, which is what keeps every gateway answer
byte-identical to a plain sequential session.

The serving pipeline, in order:

1. **Admission** (:mod:`repro.serve.admission`): bounded queue with
   per-tenant quotas; refusals are typed
   :class:`~repro.common.errors.AdmissionRejectedError`\\ s, and a full
   queue sheds already-expired requests before rejecting live ones.
2. **Scheduling**: deficit round-robin across tenants (cross-tenant
   fairness), effective-deadline order within a tenant (urgency), and a
   starvation guard that forces service of any request older than the
   guard regardless of whose turn it is.
3. **Micro-batching** (:mod:`repro.serve.batcher`): the serve loop
   holds a dispatch open until the target batch is queued — ``submit``
   signals it on enqueue — or an adaptive window runs out, so concurrent
   arrivals coalesce into a single ``submit_batch`` call.  The window is
   sized online from the observed arrival rate and batch service time,
   and is zero at low load and whenever recent windows gained no
   arrival (one back-to-back caller) — plus an *inline fast path* that
   serves a lone request directly in ``submit`` (no queue hop, no thread
   hop), so pass-through latency is a direct agent call plus
   microseconds of bookkeeping.
4. **Execution**: per-tenant :class:`~repro.serve.tenant.TenantHandle`
   agents (own predictors + own answer-cache partition) over the shared
   engine, run on a single ``sea-gateway`` thread via
   ``run_in_executor`` so the event loop stays responsive during scans.

Byte-identity contract: for each tenant, the answers the gateway
returned equal a fresh sequential agent over the same store serving
those answers' queries in ``served_seq`` order (the gateway's serving
order, stamped on each answer: the gateway keeps no log of what it
served) — E24 asserts this on every trial.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.common.accounting import CostReport
from repro.common.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    GatewayClosedError,
    GatewayFailedError,
)
from repro.common.validation import require
from repro.core.agent import AgentConfig
from repro.obs.observer import Observer
from repro.queries.query import AnalyticsQuery
from repro.queries.sql import parse_query
from repro.serve.admission import AdmissionQueue, Request
from repro.serve.batcher import AdaptiveBatcher
from repro.serve.tenant import DeficitRoundRobin, TenantHandle
from repro.session import SEASession


@dataclass
class GatewayConfig:
    """Knobs for admission, scheduling and micro-batching."""

    #: Total pending requests across all tenants before ``queue_full``.
    queue_capacity: int = 256
    #: Pending requests per tenant before ``tenant_quota`` (0 = none).
    tenant_quota: int = 0
    #: Largest batch one dispatch may coalesce.
    max_batch: int = 64
    #: Deadline applied when a request names none (seconds from arrival).
    default_timeout: float = 1.0
    #: A queued request older than this is served next, turn or not.
    starvation_guard: float = 0.25
    #: Upper clamp on the adaptive batching window (seconds).
    max_window: float = 0.02
    #: Utilisation at or below which the gateway is pure pass-through.
    passthrough_rho: float = 0.75
    #: Target batch = ceil(headroom * rho) once batching engages.
    headroom: float = 2.0
    #: Samples kept by the batcher's windowed-median estimators.
    estimator_history: int = 32
    #: DRR credits granted per visit (0 = use ``max_batch``).
    drr_quantum: int = 0


@dataclass
class GatewayAnswer:
    """One served request: the session answer plus serving provenance."""

    query: AnalyticsQuery
    value: object
    mode: str
    cost: CostReport
    tenant: str
    batched: bool
    batch_size: int
    queued_sec: float
    service_sec: float
    profile: object = None
    #: Position in the tenant agent's serving order (``ServedQuery``).
    served_seq: int = 0


@dataclass
class _GatewayCounters:
    served_total: int = 0
    passthrough_total: int = 0
    coalesced_total: int = 0
    batches_total: int = 0
    inline_total: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class ServingGateway:
    """Async front door multiplexing tenants over one ``SEASession``.

    The gateway owns the session it serves by default: ``close()``
    drains the queue, stops the serve loop, shuts the serving thread
    down and closes the session (idempotently); pass
    ``own_session=False`` to share one session across many gateway
    lifetimes.  Use it as an async context manager::

        async with ServingGateway(session) as gw:
            answer = await gw.submit("SELECT ...", tenant="alice")

    ``time_fn`` is the *scheduling* clock (arrivals, deadlines,
    windows); tests inject a fake one to make shedding deterministic.
    Service times always come from ``time.perf_counter``.
    """

    def __init__(
        self,
        session: SEASession,
        config: Optional[GatewayConfig] = None,
        agent_config: Optional[AgentConfig] = None,
        time_fn=None,
        own_session: bool = True,
    ) -> None:
        self.session = session
        self.own_session = own_session
        self.config = config or GatewayConfig()
        require(self.config.max_batch >= 1, "max_batch must be >= 1")
        require(self.config.default_timeout > 0, "default_timeout must be > 0")
        self._agent_config = agent_config
        self._time = time_fn or time.monotonic
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            tenant_quota=self.config.tenant_quota,
            starvation_guard=self.config.starvation_guard,
        )
        self.batcher = AdaptiveBatcher(
            max_window=self.config.max_window,
            passthrough_rho=self.config.passthrough_rho,
            headroom=self.config.headroom,
            history=self.config.estimator_history,
        )
        self.drr = DeficitRoundRobin(
            quantum=self.config.drr_quantum or self.config.max_batch
        )
        self.counters = _GatewayCounters()
        self._handles: Dict[str, TenantHandle] = {}
        self.observer: Optional[Observer] = session.observer
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._window: Optional[asyncio.Future] = None  # the open batching window
        self._failure: Optional[BaseException] = None  # what killed the serve loop
        self._pool = None  # lazy single-thread executor ("sea-gateway")
        self._busy = False  # a batch is executing on the serving thread
        self._inflight: List[Request] = []  # taken from the queue, unresolved
        self._closing = False
        self._closed = False

    # Tenancy ----------------------------------------------------------------
    def tenant(self, name: str = "default") -> TenantHandle:
        """Get or lazily create the named tenant's serving handle."""
        handle = self._handles.get(name)
        if handle is None:
            handle = TenantHandle(name, self.session.engine, self._agent_config)
            if self.observer is not None:
                handle.agent.attach_observer(self.observer)
            self._handles[name] = handle
            self.drr.observe(name)
        return handle

    def tenants(self) -> List[str]:
        return list(self._handles)

    # Observability ----------------------------------------------------------
    def attach_observer(self, observer: Optional[Observer] = None) -> Observer:
        """Wire an observer through the session and every tenant agent."""
        observer = self.session.attach_observer(observer)
        self.observer = observer
        for handle in self._handles.values():
            handle.agent.attach_observer(observer)
        return observer

    # Lifecycle --------------------------------------------------------------
    async def start(self) -> "ServingGateway":
        """Bind to the running loop and start the serve task (idempotent)."""
        if self._closed:
            raise GatewayClosedError(detail="gateway already closed")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._wake = asyncio.Event()
            self._task = loop.create_task(self._serve_loop())
            self._task.add_done_callback(self._serve_loop_exited)
        elif self._loop is not loop:
            raise ConfigurationError(
                "this ServingGateway is bound to a different event loop"
            )
        return self

    async def __aenter__(self) -> "ServingGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> bool:
        await self.close()
        return False

    async def close(self, drain: bool = True) -> None:
        """Stop serving and shut everything down (idempotent).

        ``drain=True`` (the default) serves every queued request before
        stopping; ``drain=False`` fails them with a typed ``closed``
        rejection.  Either way new submissions are refused immediately,
        the serving thread is joined, and the underlying session closed.
        """
        if self._closed:
            return
        self._closing = True
        if self._task is not None:
            if not drain:
                for request in self.queue.drain():
                    self._fail(
                        request,
                        GatewayClosedError(
                            tenant=request.tenant, detail="gateway closing"
                        ),
                    )
                    self.counters.reject("closed")
            self._wake.set()
            self._end_window()
            # wait(), not await: a dead loop's exception was already
            # handed to every waiter by _serve_loop_exited.
            await asyncio.wait([self._task])
            self._task = None
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.own_session:
            self.session.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # Submission -------------------------------------------------------------
    async def submit(
        self,
        statement_or_query: Union[str, AnalyticsQuery],
        tenant: str = "default",
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> GatewayAnswer:
        """Admit one request and await its answer.

        ``deadline`` is absolute on the gateway clock; ``timeout`` is
        relative to arrival; naming neither applies
        ``config.default_timeout``.  Raises
        :class:`AdmissionRejectedError` (reasons ``queue_full`` /
        ``tenant_quota`` / ``deadline`` / ``closed``) when the request
        cannot be served within policy, and its subclass
        :class:`GatewayFailedError` once the serve loop has died.
        """
        if self._failure is not None:
            self.counters.reject("closed")
            raise GatewayFailedError(self._failure, tenant) from self._failure
        if self._closed or self._closing:
            self.counters.reject("closed")
            raise GatewayClosedError(tenant=tenant)
        await self.start()
        query = (
            parse_query(statement_or_query)
            if isinstance(statement_or_query, str)
            else statement_or_query
        )
        now = self._time()
        if deadline is None:
            deadline = now + (
                timeout if timeout is not None else self.config.default_timeout
            )
        handle = self.tenant(tenant)
        request = Request(
            tenant=tenant, query=query, arrival=now, deadline=deadline
        )
        if deadline <= now:
            self.counters.reject("deadline")
            self.queue.rejected_total += 1
            raise AdmissionRejectedError(
                "deadline", tenant=tenant, detail="dead on arrival"
            )
        # Inline fast path: nothing queued, nothing executing, and the
        # batcher would open no window — the loop is keeping up, or
        # recent windows gained nobody (one back-to-back caller) — so
        # serve right here on the loop thread.  This is what makes
        # low-load and lone-caller p50 indistinguishable from a direct
        # agent submit (no future, no hop, no window).  While windows
        # are worth opening, requests go through the queue instead,
        # keeping the event loop free to admit arrivals while batches
        # execute on the serving thread.
        if (
            not self._busy
            and len(self.queue) == 0
            and self.batcher.window() == 0.0
        ):
            self.batcher.note_arrival(now)
            return self._serve_inline(handle, request)
        request.future = self._loop.create_future()
        try:
            if len(self.queue) >= self.config.queue_capacity:
                # Shed already-expired queued requests (their futures
                # fail with reason="deadline") before refusing live
                # work — they could never be served usefully anyway.
                self._shed(now)
            self.queue.offer(request, now)
        except AdmissionRejectedError as exc:
            self.counters.reject(exc.reason)
            if self.observer is not None and self.observer.enabled:
                self.observer.inc(
                    "gateway_rejected_total", reason=exc.reason, tenant=tenant
                )
            raise
        self.batcher.note_arrival(now)
        self._wake.set()
        if (
            self._window is not None
            and len(self.queue) >= self.batcher.target_batch()
        ):
            self._end_window()
        return await request.future

    async def submit_many(
        self,
        statements,
        tenant: str = "default",
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> List[GatewayAnswer]:
        """Submit a burst concurrently; returns answers in input order.

        Rejected members surface as raised exceptions from the gather,
        mirroring ``asyncio.gather`` semantics with
        ``return_exceptions=False``.
        """
        return await asyncio.gather(
            *(
                self.submit(s, tenant=tenant, deadline=deadline, timeout=timeout)
                for s in statements
            )
        )

    # Serving ----------------------------------------------------------------
    def _serve_inline(
        self, handle: TenantHandle, request: Request
    ) -> GatewayAnswer:
        """Pass-through: execute one request synchronously on the loop."""
        self._busy = True
        try:
            started = time.perf_counter()
            records = handle.serve([request])
            host = time.perf_counter() - started
        finally:
            self._busy = False
        self.batcher.note_batch(1, host)
        self.counters.inline_total += 1
        answer = self._answer(request, records[0], 1, 0.0, host)
        self._note_served([request], 1, host, inline=True)
        return answer

    async def _serve_loop(self) -> None:
        """The single consumer: shed, pick, coalesce, execute, resolve."""
        while True:
            self._inflight = []
            await self._wake.wait()
            if len(self.queue) == 0:
                if self._closing:
                    return
                self._wake.clear()
                continue
            now = self._time()
            self._shed(now)
            window = self.batcher.window()
            if window > 0.0 and not self._closing and len(self.queue) > 0:
                await self._coalesce(window)
                now = self._time()
                self._shed(now)
            picked = self._pick(now)
            if picked is None:
                if len(self.queue) == 0 and not self._closing:
                    self._wake.clear()
                continue
            tenant, budget = picked
            requests = self.queue.take(
                tenant,
                min(budget, self.config.max_batch),
                now,
                # Feasibility-check the dispatch against the batcher's
                # measured per-query service: members whose deadline
                # the batch cannot meet become fast typed rejections
                # instead of late answers.
                service=self.batcher.service_seconds,
            )
            self.drr.charge(tenant, len(requests))
            if not requests:
                continue
            self._inflight = requests
            handle = self._handles[tenant]

            def timed_serve(handle=handle, requests=requests):
                # Timed on the serving thread itself so the batcher's
                # service estimate reflects the work, not the loop ->
                # thread handoff (which amortises away with batch size
                # and must not masquerade as saturation).
                t0 = time.perf_counter()
                records = handle.serve(requests)
                return records, time.perf_counter() - t0

            self._busy = True
            try:
                if len(requests) == 1 and self.batcher.window() == 0.0:
                    # Pass-through regime: a lone request that queued
                    # only because it arrived mid-serve.  Serving it on
                    # the loop thread skips the executor handoff, so a
                    # queued pass-through costs the same as the inline
                    # fast path — the E24 low-rate p50 gate measures
                    # exactly this.  Batches (or any nonzero window)
                    # still go to the serving thread to keep the loop
                    # admitting arrivals during long scans.
                    records, host = timed_serve()
                else:
                    records, host = await self._loop.run_in_executor(
                        self._serving_pool(), timed_serve
                    )
            except Exception as exc:  # engine failure -> every waiter
                for request in requests:
                    self._fail(request, exc)
                continue
            finally:
                self._busy = False
            self.batcher.note_batch(len(requests), host)
            done = self._time()
            size = len(requests)
            for request, record in zip(requests, records):
                if request.future is not None and not request.future.done():
                    request.future.set_result(
                        self._answer(
                            request,
                            record,
                            size,
                            max(0.0, done - request.arrival - host),
                            host,
                        )
                    )
            self._note_served(requests, size, host, inline=False)

    async def _coalesce(self, window: float) -> None:
        """Hold the dispatch open until the target batch is queued.

        Event-driven: ``submit`` ends the window the moment
        ``len(queue) >= target_batch()`` (and ``close`` ends it at
        once); ``window`` only bounds the wait.  The batcher then
        learns the outcome — how many requests are queued beside the
        one that woke the loop — which is what keeps the next window
        worth opening.
        """
        if len(self.queue) < self.batcher.target_batch():
            self._window = self._loop.create_future()
            timer = self._loop.call_later(window, self._end_window)
            try:
                await self._window
            finally:
                timer.cancel()
                self._window = None
        self.batcher.note_window(len(self.queue) - 1)

    def _end_window(self) -> None:
        if self._window is not None and not self._window.done():
            self._window.set_result(None)

    def _serve_loop_exited(self, task: asyncio.Task) -> None:
        """Supervise the consumer: it may only return from ``close()``.

        Any other exit (a batcher or scheduling error outside the
        narrow ``try`` around ``handle.serve``, a cancellation) would
        leave queued futures unresolved and every later ``submit``
        queueing behind them forever.  Fail them all, typed, with the
        cause attached.
        """
        if task.cancelled():
            cause: BaseException = asyncio.CancelledError("serve loop cancelled")
        else:
            cause = task.exception()
            if cause is None:
                return
        self._failure = cause
        for request in self._inflight + self.queue.drain():
            if self._fail(request, GatewayFailedError(cause, request.tenant)):
                self.counters.reject("closed")

    def _pick(self, now: float):
        """Choose the next tenant to serve and its dispatch budget.

        The starvation guard overrides DRR: any request queued longer
        than the guard promotes its tenant to the front regardless of
        deficits, bounding worst-case queue wait for every client.
        """
        if self.queue.oldest_wait(now) >= self.config.starvation_guard:
            oldest_tenant, oldest_arrival = None, None
            for name in self.queue.tenants_with_work():
                heap = self.queue._heaps.get(name, ())
                for _, _, request in heap:
                    if not request.dead and (
                        oldest_arrival is None or request.arrival < oldest_arrival
                    ):
                        oldest_tenant, oldest_arrival = name, request.arrival
            if oldest_tenant is not None:
                return oldest_tenant, self.config.max_batch
        pending = {
            name: self.queue.pending(name)
            for name in self.queue.tenants_with_work()
        }
        return self.drr.select(pending)

    def _shed(self, now: float) -> None:
        for request in self.queue.shed_expired(now):
            self.counters.reject("deadline")
            if self.observer is not None and self.observer.enabled:
                self.observer.inc(
                    "gateway_rejected_total",
                    reason="deadline",
                    tenant=request.tenant,
                )
            self.queue._reject_deadline(request, now)

    def _answer(
        self,
        request: Request,
        record,
        batch_size: int,
        queued_sec: float,
        host_sec: float,
    ) -> GatewayAnswer:
        return GatewayAnswer(
            query=record.query,
            value=record.answer,
            mode=record.mode,
            cost=record.cost,
            tenant=request.tenant,
            batched=batch_size > 1,
            batch_size=batch_size,
            queued_sec=queued_sec,
            service_sec=host_sec / batch_size,
            profile=record.profile,
            served_seq=record.served_seq,
        )

    def _note_served(
        self, requests: List[Request], size: int, host: float, inline: bool
    ) -> None:
        self.counters.served_total += size
        self.counters.batches_total += 1
        if size > 1:
            self.counters.coalesced_total += size
        else:
            self.counters.passthrough_total += 1
        observer = self.observer
        if observer is None or not observer.enabled:
            return
        tenant = requests[0].tenant
        observer.inc("gateway_requests_total", size, tenant=tenant)
        observer.observe("gateway_batch_size", float(size))
        observer.observe("gateway_batch_host_seconds", host)
        observer.set_gauge("gateway_queue_depth", float(len(self.queue)))
        observer.set_gauge(
            "gateway_batch_window_seconds", self.batcher.window()
        )
        observer.record_span(
            "gateway:inline" if inline else "gateway:batch",
            observer.now,
            host,
            category="gateway",
            track="gateway",
            tenant=tenant,
            batch=size,
        )

    @staticmethod
    def _fail(request: Request, exc: BaseException) -> bool:
        """Fail ``request``'s waiter; False if it was already resolved."""
        if request.future is not None and not request.future.done():
            request.future.set_exception(exc)
            return True
        return False

    def _serving_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="sea-gateway"
            )
        return self._pool

    # Introspection ----------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Gateway counters, batcher estimates and per-tenant stats."""
        return {
            "served_total": self.counters.served_total,
            "inline_total": self.counters.inline_total,
            "passthrough_total": self.counters.passthrough_total,
            "coalesced_total": self.counters.coalesced_total,
            "batches_total": self.counters.batches_total,
            "rejected": dict(self.counters.rejected),
            "queue_depth": len(self.queue),
            "queue_admitted_total": self.queue.admitted_total,
            "queue_shed_total": self.queue.shed_total,
            "queue_rejected_total": self.queue.rejected_total,
            "batcher": self.batcher.snapshot(),
            "drr_deficits": self.drr.deficits(),
            "tenants": {
                name: handle.stats() for name, handle in self._handles.items()
            },
        }
