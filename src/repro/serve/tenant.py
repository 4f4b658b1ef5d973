"""Per-tenant serving handles and cross-tenant fair scheduling.

Multi-tenancy in the gateway is *agent-level*: every tenant gets its own
:class:`~repro.core.SEAAgent` — its own predictors, learning history,
and (crucially) its own :class:`~repro.core.AnswerCache` partition — all
sharing one exact engine over one :class:`DistributedStore`.  The data
is shared; the learned serving state and cache are not, so one tenant's
drift resets or cache churn can never pollute another's answers, and a
tenant's answer stream is byte-identical to a dedicated sequential
session serving the same queries in the same order.

Fairness across tenants is deficit round-robin (*DRR*) over coalesced
batches: each visit grants a tenant ``quantum`` credits, a dispatched
batch spends one credit per request, and unused credit carries over only
while the tenant stays backlogged.  A tenant flooding the gateway gets
throughput proportional to its share of visits — not of arrivals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.common.validation import require
from repro.core.agent import AgentConfig, SEAAgent, ServedQuery


class TenantHandle:
    """One tenant's serving state over the gateway's shared engine."""

    def __init__(
        self, name: str, engine, config: Optional[AgentConfig] = None
    ) -> None:
        self.name = name
        # Each handle owns a *copy* of the config: freezing one tenant's
        # learning (or resizing its cache budget) must not leak into the
        # others through a shared mutable dataclass.
        self.config = replace(config) if config is not None else AgentConfig()
        self.agent = SEAAgent(engine, self.config)
        self.served_total = 0
        self.batches_total = 0

    def serve(self, requests) -> List[ServedQuery]:
        """Serve one coalesced batch (size 1 = the pass-through path).

        Runs on the gateway's single serving thread; a singleton batch
        uses the agent's direct ``submit`` (no batch bookkeeping at all)
        and larger batches the PR-2 ``submit_batch`` path — both are
        byte-identical to sequential submits in this order, which each
        record carries away as its ``served_seq`` (nothing is kept here).
        """
        queries = [request.query for request in requests]
        self.served_total += len(queries)
        self.batches_total += 1
        if len(queries) == 1:
            return [self.agent.submit(queries[0])]
        return self.agent.submit_batch(queries)

    def stats(self) -> Dict[str, float]:
        stats = {
            "served": float(self.served_total),
            "batches": float(self.batches_total),
        }
        for key, value in self.agent.stats().items():
            stats[key] = value
        return stats


class DeficitRoundRobin:
    """DRR picker over tenants with pending work.

    ``select`` returns ``(tenant, budget)`` — the next backlogged tenant
    in ring order and how many requests its accumulated deficit allows —
    or ``None`` when nothing is pending.  ``charge`` spends the credit a
    dispatch actually used.  Tenants drained empty lose their carryover
    (classic DRR: credit only accumulates while backlogged).
    """

    def __init__(self, quantum: int = 32) -> None:
        require(quantum >= 1, "quantum must be >= 1")
        self.quantum = quantum
        self._ring: Deque[str] = deque()
        self._known: set = set()
        self._deficit: Dict[str, float] = {}

    def observe(self, tenant: str) -> None:
        """Ensure ``tenant`` has a slot in the ring (idempotent)."""
        if tenant not in self._known:
            self._known.add(tenant)
            self._ring.append(tenant)
            self._deficit[tenant] = 0.0

    def select(self, pending: Mapping[str, int]) -> Optional[Tuple[str, int]]:
        for _ in range(len(self._ring)):
            tenant = self._ring[0]
            self._ring.rotate(-1)
            backlog = pending.get(tenant, 0)
            if backlog <= 0:
                self._deficit[tenant] = 0.0
                continue
            self._deficit[tenant] += self.quantum
            budget = int(min(backlog, self._deficit[tenant]))
            if budget >= 1:
                return tenant, budget
        return None

    def charge(self, tenant: str, served: int) -> None:
        if tenant in self._deficit:
            self._deficit[tenant] = max(0.0, self._deficit[tenant] - served)

    def deficits(self) -> Dict[str, float]:
        return dict(self._deficit)
