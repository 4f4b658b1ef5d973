"""Async multi-tenant serving gateway (DESIGN §14).

One asyncio front door over one :class:`~repro.session.SEASession`:
bounded typed admission, deadline-ordered DRR scheduling with a
starvation guard, adaptive micro-batching that collapses to pure
pass-through at low load, and per-tenant agents (own predictors, own
answer-cache partition) over the shared engine — with every answer
byte-identical to a sequential session serving the same queries in the
gateway's serving order.
"""

from repro.common.errors import (
    AdmissionRejectedError,
    GatewayClosedError,
    GatewayFailedError,
)
from repro.serve.admission import AdmissionQueue, Request
from repro.serve.batcher import AdaptiveBatcher
from repro.serve.gateway import GatewayAnswer, GatewayConfig, ServingGateway
from repro.serve.tenant import DeficitRoundRobin, TenantHandle

__all__ = [
    "AdmissionQueue",
    "AdmissionRejectedError",
    "AdaptiveBatcher",
    "DeficitRoundRobin",
    "GatewayAnswer",
    "GatewayClosedError",
    "GatewayConfig",
    "GatewayFailedError",
    "Request",
    "ServingGateway",
    "TenantHandle",
]
