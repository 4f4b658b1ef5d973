"""Deploy the program, drive one timed window through its front door, check it.

Reads go through ``ServingGateway.submit(sql_text)`` and writes through
``SEASession.append_rows / delete_rows / advance / recover``; the session
is built with default ``workers``/``executor``.  One process, two threads
at most: the asyncio loop (load generator and gateway share it, because
``submit`` is a coroutine of that loop) and the gateway's own
``sea-gateway`` serving thread.

Correctness is checked here, outside every timed window (``mixed_rw``
checks sampled reads at the moment they are served, because its data
moves, and the time spent checking is taken out of the window).

Every timing is host wall-clock time (``time.perf_counter_ns``; the open
loop uses ``time.monotonic``, the gateway's own scheduling clock).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import workloads as W
from repro.common.errors import AdmissionRejectedError
from repro.serve.gateway import ServingGateway
from repro.session import SEASession
from tracing import Tracer

MODES = {"train": 0, "predicted": 1, "fallback": 2}

#: A predicted answer further than this from the truth is inaccurate
#: (``AgentConfig.error_threshold``'s default: what the agent promises).
ACCURATE_WITHIN = 0.10
#: Throughput and latency percentiles are medians over this many
#: consecutive chunks of a window (fewer where a chunk would hold fewer
#: than CHUNK_SAMPLES latencies: five lie beyond a chunk's p99, and the
#: median over the chunks steadies it against a stall in one of them).
CHUNKS = 12
CHUNK_SAMPLES = 500

#: Steady-phase generator lag (p99) above which an open-loop run is
#: invalid.  It is judged on the arrivals that found the program idle: the
#: generator shares the gateway's loop, and the gateway serves a lone
#: request *inline* on it, so an arrival that lands during a scan is issued
#: late by the program's design, not by the generator.  That wait is
#: inside every latency (timed from the due instant) and is reported as
#: ``serve.gen_lag_p99_ms``; ``serve.gen_idle_lag_p99_ms`` is what is judged.
PACER_LAG_LIMIT_MS = 1.0
#: Sleep up to this close to the due instant, then yield-spin: a bare
#: ``asyncio.sleep`` overshoots by about a millisecond on this host.
PACER_SPIN_S = 0.0015
#: ``steady`` answers the oracle checks, evenly spaced over the phase.
STEADY_ORACLE_ANSWERS = 700


class PacerStarved(RuntimeError):
    """The load generator could not keep its arrival schedule."""


# Deployment -----------------------------------------------------------------
@dataclass
class Deployment:
    """One live program: session + gateway, warmed and (maybe) frozen."""

    workload: W.Workload
    session: SEASession
    gateway: ServingGateway
    tenants: Tuple[str, ...]
    setup_s: float
    put_table_s: float
    warm_s: float

    async def close(self) -> None:
        await self.gateway.close()  # owns and closes the session


async def deploy(
    workload: W.Workload,
    seed: int,
    warm: Dict[str, Sequence[str]],
    scale: float = 1.0,
) -> Deployment:
    """Generate the table, load it, warm every tenant, freeze learning.

    ``warm`` maps tenant -> the statements it sends before the window.
    """
    started = time.perf_counter()
    table = W.make_table(workload, seed, scale)
    session = SEASession(
        n_nodes=W.N_NODES,
        partitions_per_node=workload.partitions_per_node,
        layout=workload.layout,
        ingest=workload.ingest,
        epoch_seconds=W.RW_EPOCH_SECONDS,
    )
    loading = time.perf_counter()
    session.load_table(table)
    put_table_s = time.perf_counter() - loading
    del table
    gateway = ServingGateway(session)
    await gateway.start()
    warming = time.perf_counter()
    for tenant, statements in warm.items():
        gateway.tenant(tenant)  # a tenant with nothing to warm still exists
        for sql in statements:
            await gateway.submit(sql, tenant=tenant)
        if workload.freeze_after_warm:
            gateway.tenant(tenant).agent.config.keep_learning_on_fallback = False
    finished = time.perf_counter()
    return Deployment(
        workload=workload,
        session=session,
        gateway=gateway,
        tenants=tuple(warm),
        setup_s=finished - started,
        put_table_s=put_table_s,
        warm_s=finished - warming,
    )


# Results --------------------------------------------------------------------
@dataclass
class Checks:
    """What the oracle found; every counter but the first is a failure."""

    exact_checked: int = 0
    wrong_answers: int = 0
    rel_errors: List[float] = field(default_factory=list)  # predicted answers
    durability_misses: int = 0
    untyped_errors: int = 0
    late_or_refused: int = 0  # below-capacity phases only

    def judge(self, engine, answer) -> None:
        """Compare one served answer with ``ExactEngine.ground_truth``."""
        truth = engine.ground_truth(answer.query)
        if answer.mode == "predicted":
            value, truth = float(answer.value), float(truth)
            if math.isnan(truth):
                return  # aggregate of an empty selection: no error scale
            self.rel_errors.append(abs(value - truth) / max(abs(truth), 1.0))
        else:
            self.exact_checked += 1
            same = np.array_equal(
                np.asarray(answer.value), np.asarray(truth), equal_nan=True
            )
            if not same:
                self.wrong_answers += 1

    @property
    def accurate_share(self) -> float:
        errors = np.asarray(self.rel_errors)
        return float(np.mean(errors <= ACCURATE_WITHIN)) if len(errors) else 0.0

    @property
    def wrong(self) -> int:
        """Failures that make the outputs incorrect (not merely late)."""
        return self.wrong_answers + self.durability_misses + self.untyped_errors

    @property
    def failed(self) -> int:
        return self.wrong + self.late_or_refused


@dataclass
class Window:
    """Observations of one timed window."""

    operations: int = 0
    throughput: float = 0.0
    reads_answered: int = 0
    service_s: float = 0.0  # sum of GatewayAnswer.service_sec (the gateway's timer)
    read_latency_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    modes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    sim_bytes: float = 0.0
    sim_elapsed_s: float = 0.0
    nodes_touched: float = 0.0
    checks: Checks = field(default_factory=Checks)
    # what the gateway did with the reads (closed loops; phases carry their own)
    queue_wait_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    batch_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    gateway_before: Dict = field(default_factory=dict)
    gateway_after: Dict = field(default_factory=dict)
    # mixed_rw
    write_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    epoch_close_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rows_appended: int = 0
    pending_delta_rows_max: int = 0
    # open_mixed
    phases: Dict[str, "Phase"] = field(default_factory=dict)
    #: Bytes held against live user bytes, read when the window ends.
    space: Dict[str, float] = field(default_factory=dict)

    def mode_share(self, mode: str) -> float:
        return float(np.mean(self.modes == MODES[mode])) if len(self.modes) else 0.0


class ReadLog:
    """Per-read observations, appended in the loop and folded afterwards.

    The loop only appends references (mode strings are interned, the cost
    report is the one the agent's history already holds), so the harness
    adds little time between two requests and little memory to the run.
    """

    def __init__(self) -> None:
        self.issued_ns: List[int] = []
        self.latency_ns: List[int] = []
        self.modes: List[str] = []
        self.costs: List = []
        self.queued_s: List[float] = []
        self.service_s: List[float] = []
        self.batch: List[int] = []

    def record(self, issued_ns: int, done_ns: int, answer) -> None:
        self.issued_ns.append(issued_ns)
        self.latency_ns.append(done_ns - issued_ns)
        self.modes.append(answer.mode)
        self.costs.append(answer.cost)
        self.queued_s.append(answer.queued_sec)
        self.service_s.append(answer.service_sec)
        self.batch.append(answer.batch_size)

    def fold(self) -> Dict[str, object]:
        costs = self.costs
        return {
            "reads_answered": len(costs),
            "service_s": float(sum(self.service_s)),
            "read_latency_ms": np.asarray(self.latency_ns, dtype=float) / 1e6,
            "modes": np.asarray([MODES[m] for m in self.modes], np.uint8),
            "sim_bytes": float(sum(c.bytes_scanned for c in costs)),
            "sim_elapsed_s": float(sum(c.elapsed_sec for c in costs)),
            "nodes_touched": float(sum(c.nodes_touched for c in costs)),
            "queue_wait_ms": np.asarray(self.queued_s, dtype=float) * 1e3,
            "batch_sizes": np.asarray(self.batch, np.int32),
        }


def chunked_rate(ops: Sequence[float], seconds: Sequence[float]) -> Dict[str, float]:
    """Throughput of a closed loop from consecutive slices of its window.

    Slice ``i`` completed ``ops[i]`` operations in ``seconds[i]`` of wall
    time.  The window is cut into :data:`CHUNKS` runs of slices and the
    median chunk rate is the throughput, so one disturbed second of a
    shared host does not move it.
    """
    ops, seconds = np.asarray(ops, dtype=float), np.asarray(seconds, dtype=float)
    rates = [
        o.sum() / t.sum()
        for o, t in zip(np.array_split(ops, CHUNKS), np.array_split(seconds, CHUNKS))
        if len(o)
    ]
    return {"operations": int(ops.sum()), "throughput": float(np.median(rates))}


def chunked_percentile(latencies: np.ndarray, q: float) -> float:
    """The median, over consecutive chunks of a window, of each chunk's
    ``q``-th percentile: the latency of a typical stretch of the window."""
    chunks = max(1, min(CHUNKS, len(latencies) // CHUNK_SAMPLES))
    return float(
        np.median([np.percentile(c, q) for c in np.array_split(latencies, chunks)])
    )


def measure_space(deployment: Deployment) -> Dict[str, float]:
    """Bytes the store holds against the live user bytes it holds them for."""
    store = deployment.session.store
    stored = store.table(W.TABLE)
    ingest = deployment.session.ingest
    return {
        "stored_bytes": float(stored.stored_bytes),  # base images + deltas
        "wal_bytes": float(ingest.wal.disk_bytes) if ingest is not None else 0.0,
        "user_bytes": float(stored.n_rows * W.USER_BYTES_PER_ROW),
        "synopsis_bytes": float(store.synopsis_bytes(W.TABLE)),
    }


def sample_mask(seed: int, name: str, n: int, every: int) -> bytes:
    """Which of ``n`` reads the oracle looks at: about one in ``every``."""
    rng = W.workload_rng(seed, name, "oracle")
    return (rng.random(n) < 1.0 / every).astype(np.uint8).tobytes()


# Closed loop: reads only ------------------------------------------------------
async def read_window(
    deployment: Deployment,
    statements: Sequence[str],
    keep: bytes,
    tracer: Optional[Tracer] = None,
) -> Window:
    """One client, next request only after the previous answer.

    Requests go to the deployment's tenants in turn.  The oracle checks
    the answers ``keep`` marks and, where the workload says so, every
    predicted one.
    """
    gateway = deployment.gateway
    submit = gateway.submit
    tenants = deployment.tenants
    now = time.perf_counter_ns
    log = ReadLog()
    kept = []
    keep_predicted = deployment.workload.check_every_predicted
    before = gateway.stats()
    for i, sql in enumerate(statements):
        issued = now()
        if tracer is not None:
            sql = tracer.parse_request(i, sql)
        answer = await submit(sql, tenants[i % len(tenants)])
        log.record(issued, now(), answer)
        if keep[i] or (keep_predicted and answer.mode == "predicted"):
            kept.append(answer)
    # One slice per request, from its issue to the next one's.
    seconds = np.diff(np.asarray(log.issued_ns + [now()], dtype=float)) / 1e9
    checks = Checks()
    engine = deployment.session.engine
    for answer in kept:
        checks.judge(engine, answer)
    return Window(
        checks=checks,
        gateway_before=before,
        gateway_after=gateway.stats(),
        space=measure_space(deployment),
        **chunked_rate(np.ones(len(seconds)), seconds),
        **log.fold(),
    )


# Closed loop: writes beside reads ----------------------------------------------
@dataclass
class RWPlan:
    """Everything ``mixed_rw`` sends, generated before the window."""

    batches: List  # one Table of RW_APPEND_ROWS rows per cycle
    reads: List[List[str]]  # RW_READS_PER_CYCLE statements per cycle
    first_row: int  # row number (== ts) of the first appended row
    keep: bytes  # oracle sample over cycles * reads


def plan_rw(workload: W.Workload, seed: int, cycles: int, rows: int) -> RWPlan:
    rng = W.workload_rng(seed, workload.name, "window")
    appended = W.make_rows(
        W.workload_rng(seed, workload.name, "appends"),
        cycles * W.RW_APPEND_ROWS,
        rows,
        workload.ts_run,
    )
    batches = [
        appended.slice_rows(c * W.RW_APPEND_ROWS, (c + 1) * W.RW_APPEND_ROWS)
        for c in range(cycles)
    ]
    pool = [W.hot_statement(rng, "AVG(v)") for _ in range(W.RW_HOT_POOL)]
    reads = []
    for cycle in range(cycles):
        tail_ts = float(rows + (cycle + 1) * W.RW_APPEND_ROWS - 1)
        cycle_reads = [
            W.tail_statement(rng, tail_ts)
            for _ in range(W.RW_TAIL_READS_PER_CYCLE)
        ]
        cycle_reads += [
            pool[rng.integers(0, len(pool))]
            for _ in range(W.RW_READS_PER_CYCLE - W.RW_TAIL_READS_PER_CYCLE)
        ]
        reads.append(cycle_reads)
    keep = sample_mask(seed, workload.name, cycles * W.RW_READS_PER_CYCLE, 20)
    return RWPlan(batches=batches, reads=reads, first_row=rows, keep=keep)


def rw_warm_statements(workload: W.Workload, seed: int) -> List[str]:
    rng = W.workload_rng(seed, workload.name, "warm")
    return [W.hot_statement(rng, "AVG(v)") for _ in range(workload.warm_requests)]


async def rw_window(
    deployment: Deployment, plan: RWPlan, tracer: Optional[Tracer] = None
) -> Window:
    """[append; 8 reads; advance] cycles, a delete every 10th, then crash."""
    session, engine = deployment.session, deployment.session.engine
    ingest = session.ingest
    gateway = deployment.gateway
    submit = gateway.submit
    now = time.perf_counter_ns
    log = ReadLog()
    write_ns: List[int] = []
    close_ns: List[int] = []
    acknowledged: List[Tuple[int, int]] = []  # (lsn, first ts of the batch)
    cycle_ops: List[int] = []
    cycle_ns: List[int] = []  # without the time the oracle took
    checks = Checks()
    frontier = 0  # every ts below it has been deleted
    pending_max = 0
    r = 0
    before = gateway.stats()
    for cycle, batch in enumerate(plan.batches):
        cycle_start = t0 = now()
        ops, paused = 2 + len(plan.reads[cycle]), 0
        lsn = session.append_rows(W.TABLE, batch)
        write_ns.append(now() - t0)
        acknowledged.append((lsn, plan.first_row + cycle * W.RW_APPEND_ROWS))
        for sql in plan.reads[cycle]:
            issued = now()
            if tracer is not None:
                sql = tracer.parse_request(r, sql)
            answer = await submit(sql)
            done = now()
            log.record(issued, done, answer)
            if plan.keep[r]:
                checks.judge(engine, answer)
                paused += now() - done
            r += 1
        if cycle % W.RW_DELETE_EVERY == W.RW_DELETE_EVERY - 1:
            low, high = float(frontier), float(frontier + W.RW_DELETE_ROWS - 1)

            def oldest(view, low=low, high=high):
                ts = view.column("ts")
                return (ts >= low) & (ts <= high)

            t0 = now()
            session.delete_rows(W.TABLE, oldest)
            write_ns.append(now() - t0)
            frontier += W.RW_DELETE_ROWS
            ops += 1
        if tracer is not None:
            pending_max = max(pending_max, ingest.pending_delta_rows)
        closed = ingest.n_epochs_closed
        t0 = now()
        session.advance(W.RW_ADVANCE_SECONDS)
        spent = now() - t0
        write_ns.append(spent)
        if ingest.n_epochs_closed != closed:
            close_ns.append(spent)
        cycle_ops.append(ops)
        cycle_ns.append(now() - cycle_start - paused)
    room = measure_space(deployment)  # before the crash drops the deltas

    # Durability: kill the process image mid-epoch, replay the durable log,
    # and require every acknowledged write at or below the durable LSN.
    ingest.crash()
    report = session.recover()
    # (Batches the deletes have reached are skipped: a delete may be lost.)
    present = session.store.table(W.TABLE).full_table().column("ts")
    durable = np.asarray(
        [
            first_ts
            for lsn, first_ts in acknowledged
            if lsn <= report.durable_lsn and first_ts >= frontier
        ],
        dtype=float,
    )
    expected = durable[:, None] + np.arange(W.RW_APPEND_ROWS, dtype=float)
    readable = np.isin(expected.ravel(), present).reshape(expected.shape)
    checks.durability_misses = int(np.sum(~readable.all(axis=1)))

    return Window(
        checks=checks,
        gateway_before=before,
        gateway_after=gateway.stats(),
        space=room,
        **chunked_rate(cycle_ops, np.asarray(cycle_ns, dtype=float) / 1e9),
        **log.fold(),
        write_ms=np.asarray(write_ns, dtype=float) / 1e6,
        epoch_close_ms=np.asarray(close_ns, dtype=float) / 1e6,
        rows_appended=len(plan.batches) * W.RW_APPEND_ROWS,
        pending_delta_rows_max=pending_max,
    )


# Open loop ----------------------------------------------------------------------
@dataclass
class Schedule:
    """One phase's arrivals: offsets from phase start and the SQL of each."""

    name: str
    rate: float
    offsets: np.ndarray
    statements: List[str]


@dataclass
class Phase:
    """What one open-loop phase delivered (latencies from the due instant)."""

    schedule: Schedule
    latency_ms: np.ndarray  # answered requests
    in_deadline: int
    answered: int
    refused: int
    untyped_errors: int
    lag_ms: np.ndarray  # issue instant - due instant, every arrival
    idle_lag_ms: np.ndarray  # ... of the arrivals that found the program idle
    queue_wait_ms: np.ndarray
    batch_sizes: np.ndarray
    service_s: float  # sum of GatewayAnswer.service_sec (the gateway's timer)
    answers: List  # kept for the oracle (steady phase only)
    gateway_before: Dict
    gateway_after: Dict

    @property
    def offered(self) -> int:
        return len(self.schedule.offsets)

    @property
    def goodput(self) -> float:
        """Answers inside their deadline per second of the phase.

        The phase lasts ``offered / rate`` seconds by construction (the
        last Poisson arrival lands a little before or after), so a phase
        that answers everything in time reads exactly its offered rate.
        """
        return self.in_deadline * self.schedule.rate / self.offered


def open_plan(
    workload: W.Workload, seed: int, seconds: float
) -> Tuple[List[str], List[str], List[Schedule]]:
    """The hot pool, the capacity pass and the phases.

    Rates and the capacity pass's request count are constants of
    workloads.py; every part sends the same 70/30 hot/exploratory mix.
    """
    rng = W.workload_rng(seed, workload.name, "window")
    pool = W.hot_pool(rng, W.OPEN_HOT_POOL)

    def mix(n: int) -> List[str]:
        return [
            pool[rng.integers(0, len(pool))]
            if rng.random() < W.OPEN_HOT_SHARE
            else W.cold_statement(rng)
            for _ in range(n)
        ]

    capacity = mix(max(200, int(workload.ops_per_second * seconds)))
    phases = []
    for name, rate, share in W.OPEN_PHASES:
        offsets = W.poisson_offsets(rng, rate, seconds * share)
        phases.append(Schedule(name, rate, offsets, mix(len(offsets))))
    return pool, capacity, phases


def open_warm_statements(
    workload: W.Workload, seed: int, pool: Sequence[str]
) -> Dict[str, List[str]]:
    rng = W.workload_rng(seed, workload.name, "warm")
    return {
        tenant: [
            pool[rng.integers(0, len(pool))]
            for _ in range(workload.warm_requests)
        ]
        for tenant in W.OPEN_TENANTS
    }


async def pace(due: float) -> None:
    """Return as close after ``due`` (time.monotonic) as the loop allows."""
    while True:
        remaining = due - time.monotonic()
        if remaining <= 0.0:
            return
        await asyncio.sleep(
            remaining - PACER_SPIN_S if remaining > PACER_SPIN_S else 0.0
        )


def check_pacer(idle_lag_ms: np.ndarray) -> None:
    p99 = float(np.percentile(idle_lag_ms, 99))
    if p99 > PACER_LAG_LIMIT_MS:
        raise PacerStarved(
            f"steady-phase generator lag p99 {p99:.3f} ms exceeds "
            f"{PACER_LAG_LIMIT_MS} ms: the arrival schedule was not kept"
        )


async def open_phase(
    deployment: Deployment,
    schedule: Schedule,
    keep_answers: bool,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Issue every request at its due instant, whatever happened before."""
    gateway = deployment.gateway
    submit = gateway.submit
    tenants = deployment.tenants
    clock = time.monotonic  # the gateway's scheduling clock
    n = len(schedule.offsets)
    latency = np.full(n, np.nan)
    dues = np.zeros(n)
    ended = np.zeros(n)  # answered, refused or failed: no longer in flight
    queue_wait = np.full(n, np.nan)
    batch = np.zeros(n, np.int32)
    lag = np.zeros(n)
    refused = untyped = 0
    service_s = 0.0
    answers: List = []
    before = gateway.stats()

    async def one(i: int, due: float) -> None:
        nonlocal refused, untyped, service_s
        sql = schedule.statements[i]
        if tracer is not None:
            sql = tracer.parse_request(i, sql)
        try:
            answer = await submit(
                sql, tenants[i % len(tenants)], deadline=due + W.OPEN_DEADLINE_S
            )
        except AdmissionRejectedError:
            refused += 1  # typed backpressure: queue_full / deadline
            return
        except Exception:
            untyped += 1
            return
        finally:
            ended[i] = clock()
        latency[i] = ended[i] - due
        queue_wait[i] = answer.queued_sec
        batch[i] = answer.batch_size
        service_s += answer.service_sec
        if keep_answers:
            answers.append(answer)

    start = clock() + 0.05
    tasks = []
    for i in range(n):
        dues[i] = due = start + float(schedule.offsets[i])
        await pace(due)
        lag[i] = clock() - due
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks)
    answered = ~np.isnan(latency)
    # An arrival found the program idle when every earlier request had
    # ended by its due instant: only then is its lag the generator's own.
    last_end = np.concatenate(([0.0], np.maximum.accumulate(ended)[:-1]))
    return Phase(
        schedule=schedule,
        latency_ms=latency[answered] * 1e3,
        in_deadline=int(np.sum(latency[answered] <= W.OPEN_DEADLINE_S)),
        answered=int(answered.sum()),
        refused=refused,
        untyped_errors=untyped,
        lag_ms=lag * 1e3,
        idle_lag_ms=lag[dues >= last_end] * 1e3,
        queue_wait_ms=queue_wait[answered] * 1e3,
        batch_sizes=batch[answered],
        service_s=service_s,
        answers=answers,
        gateway_before=before,
        gateway_after=gateway.stats(),
    )


async def open_window(
    deployment: Deployment,
    capacity: Sequence[str],
    schedules: Sequence[Schedule],
    keep: bytes,
    tracer: Optional[Tracer] = None,
) -> Window:
    """A closed-loop capacity pass, then ``steady`` and ``overload``.

    The capacity pass is the sequential rate of the mix, the number the
    fixed rates of the phases are fractions and multiples of; a drain
    separates the parts.  The oracle checks ``keep`` of the capacity
    answers and :data:`STEADY_ORACLE_ANSWERS` of the ``steady`` ones.
    """
    window = await read_window(deployment, capacity, keep, tracer)
    phases = window.phases
    for schedule in schedules:
        await asyncio.sleep(W.OPEN_DRAIN_S)  # let the estimators go idle
        steady = schedule.name == "steady"
        phases[schedule.name] = await open_phase(
            deployment, schedule, keep_answers=steady, tracer=tracer
        )
    steady = phases["steady"]
    check_pacer(steady.idle_lag_ms)
    checks = window.checks
    checks.untyped_errors = sum(p.untyped_errors for p in phases.values())
    # Far below capacity a refusal or a late answer is a failed operation;
    # in ``overload`` both are the specified behaviour (serve.* metrics).
    checks.late_or_refused = steady.offered - steady.in_deadline
    engine = deployment.session.engine
    step = max(1, len(steady.answers) // STEADY_ORACLE_ANSWERS)
    for answer in steady.answers[::step]:
        checks.judge(engine, answer)
    # Latencies, modes and simulated costs are the ``steady`` phase's.
    window.operations += sum(p.offered for p in phases.values())
    window.reads_answered += sum(p.answered for p in phases.values())
    window.service_s += sum(p.service_s for p in phases.values())
    window.read_latency_ms = steady.latency_ms
    window.modes = np.asarray([MODES[a.mode] for a in steady.answers], np.uint8)
    window.sim_bytes = float(sum(a.cost.bytes_scanned for a in steady.answers))
    window.sim_elapsed_s = float(sum(a.cost.elapsed_sec for a in steady.answers))
    window.nodes_touched = float(sum(a.cost.nodes_touched for a in steady.answers))
    return window
