"""Exception hierarchy for the SEA reproduction.

All library exceptions derive from :class:`ReproError` so callers can catch
one base class.  Subclasses signal *which layer* misbehaved rather than
encoding error details in string matching.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class NotTrainedError(ReproError):
    """A learned model was asked to predict before being trained."""


class StorageError(ReproError):
    """A storage-layer operation failed (missing table, bad partition...)."""


class QueryError(ReproError):
    """A query was malformed or unsupported by the engine asked to run it."""


class FaultError(ReproError):
    """Base class for injected-fault conditions (see :mod:`repro.faults`)."""


class NodeUnavailableError(FaultError):
    """A read was routed to a node that is currently crashed.

    Raised *before* any cost is charged: a dead node refuses the
    connection, it does not serve bytes.
    """

    def __init__(self, node_id: str, partition_id: str = "") -> None:
        self.node_id = node_id
        self.partition_id = partition_id
        detail = f" serving {partition_id}" if partition_id else ""
        super().__init__(f"node {node_id} is down{detail}")


class TransientReadError(FaultError):
    """A read attempt failed after the node served (and charged) the bytes.

    Retryable: the next attempt draws fresh from the injector's seeded
    stream.  The failed attempt's scan bytes remain charged — that is the
    visible retry overhead.
    """

    def __init__(self, node_id: str, partition_id: str = "") -> None:
        self.node_id = node_id
        self.partition_id = partition_id
        detail = f" of {partition_id}" if partition_id else ""
        super().__init__(f"transient read error on {node_id}{detail}")


class PartitionLostError(FaultError):
    """Every replica of a partition is down (or exhausted its retries)."""

    def __init__(self, partition_id: str, tried=()) -> None:
        self.partition_id = partition_id
        self.tried = tuple(tried)
        detail = f" (tried {list(self.tried)})" if self.tried else ""
        super().__init__(f"all replicas of {partition_id} unavailable{detail}")


class WriteError(FaultError):
    """A write-path operation failed (WAL sync, delta apply, compaction).

    Carries the fault ``point`` that struck (``"wal_sync"``,
    ``"checkpoint"``, ...).  Transient: the compactor retries these with
    capped backoff; an exhausted retry budget re-raises the last one.
    """

    def __init__(self, point: str = "", detail: str = "") -> None:
        self.point = point
        self.detail = detail
        where = f" at {point!r}" if point else ""
        extra = f": {detail}" if detail else ""
        super().__init__(f"write-path fault{where}{extra}")


class WriteCrashError(WriteError):
    """An injected crash struck mid-write and killed the simulated process.

    Not retryable: volatile state (delta partitions, unsynced WAL tail)
    is lost and only the durable image survives.  The store refuses
    further writes until :meth:`DistributedStore.recover` replays the
    WAL back to a verified state.
    """

    def __init__(self, point: str = "", detail: str = "") -> None:
        WriteError.__init__(self, point, detail)
        where = f" at {point!r}" if point else ""
        extra = f" ({detail})" if detail else ""
        self.args = (
            f"simulated process crash mid-write{where}{extra}; "
            "recover() required before further writes",
        )


class RecoveryError(FaultError):
    """Crash-consistent recovery could not restore a verified state.

    Raised when :meth:`DistributedStore.recover` is called without
    durable ingest enabled, or when the rebuilt state fails the
    ``synopses_consistent``/``columnar_consistent`` verification.
    """


class AdmissionRejectedError(ReproError):
    """The serving gateway refused to admit (or shed) a request.

    Typed backpressure: ``reason`` says which control fired —
    ``"queue_full"`` (the bounded admission queue is at capacity and no
    expired request could be shed), ``"tenant_quota"`` (the tenant's
    per-handle pending budget is exhausted), ``"deadline"`` (the request
    was shed because its deadline passed while it waited), or
    ``"closed"`` (the gateway is draining and admits nothing new).
    Clients are expected to back off and retry; the gateway never
    silently drops a request.
    """

    def __init__(
        self,
        reason: str,
        tenant: str = "",
        detail: str = "",
        queue_depth: int = 0,
    ) -> None:
        self.reason = reason
        self.tenant = tenant
        self.detail = detail
        self.queue_depth = queue_depth
        who = f" for tenant {tenant!r}" if tenant else ""
        extra = f": {detail}" if detail else ""
        super().__init__(f"admission rejected ({reason}){who}{extra}")


class GatewayClosedError(AdmissionRejectedError):
    """A request reached a gateway that has been closed (or is draining)."""

    def __init__(self, tenant: str = "", detail: str = "") -> None:
        AdmissionRejectedError.__init__(self, "closed", tenant, detail)


class GatewayFailedError(GatewayClosedError):
    """The gateway's serve loop died; ``cause`` is what killed it.

    Raised to every request that was queued at that moment and to every
    later ``submit``: a dead consumer must fail its callers, not hang
    them.
    """

    def __init__(self, cause: BaseException, tenant: str = "") -> None:
        GatewayClosedError.__init__(
            self, tenant, detail=f"serve loop died: {cause!r}"
        )
        self.cause = cause


class RoutingError(ReproError):
    """A geo-distributed query could not be routed to any capable node."""


class OptimizationError(ReproError):
    """The optimizer could not produce an execution plan."""
