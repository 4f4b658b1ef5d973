"""E24 — open-loop serving through the async multi-tenant gateway.

E3 measured *closed-loop* batched-vs-sequential serving.  This
experiment measures what the paper's Sec. II.A story actually needs: a
serving front door under **open-loop** load, where requests arrive on a
fixed Poisson schedule whether or not earlier ones finished.  Two
tenants share one cluster through a :class:`~repro.serve.ServingGateway`
and the offered rate sweeps from well under to well over the direct
sequential service rate (factors of the measured direct throughput, so
the sweep lands the same way on any host):

* at **low rate** the adaptive batcher collapses to pass-through and the
  gateway's p50 must stay within 5% of a direct ``agent.submit`` —
  batching must cost nothing when it buys nothing;
* at **high rate** micro-batching and typed admission control take over:
  goodput (within-deadline answers per second) must beat an open-loop
  sequential baseline — simulated from *measured* per-query direct
  service times via the FIFO recurrence ``finish_i = max(arrival_i,
  finish_{i-1}) + s_i``, with service measured before *and* after the
  gateway phase so host-speed drift cancels — by >= 2x, with p99
  bounded by deadline-feasibility shedding and ``queue_full``
  rejections instead of an unbounded queue.

A third leg is **closed-loop**: one caller sends exact-path statements
back to back, the traffic of an agent client probing sequentially.  Its
arrival rate *is* ``1 / service``, so ``rho`` reads saturation for a
caller no window can ever find company for; the outcome-driven gate
must keep it on the inline fast path (inline share >= 0.95) at a p50
within 10% of a direct ``agent.submit``.

Every trial asserts the byte-identity contract: each tenant's gateway
answers equal a fresh warmed reference agent replaying that tenant's
queries sequentially in the gateway's serving order (answers, modes and
simulated costs all equal).

Scale via ``E24_ROWS`` / ``E24_REQUESTS`` / ``E24_TRIALS`` /
``E24_RATE_FACTORS`` (the CI smoke job runs reduced).  The median sweep
lands in the cumulative repo-root ``BENCH_serving_gateway.json``.
"""

import asyncio
import gc
import os
import time

import numpy as np

from repro.common.errors import AdmissionRejectedError
from repro.core import AgentConfig, SEAAgent
from repro.data import gaussian_mixture_table
from repro.serve import GatewayConfig, ServingGateway
from repro.session import SEASession

from conftest import standard_workload
from harness import (
    format_table,
    record_serving_gateway_benchmark,
    trial_stats,
    write_result,
)
from loadgen import LatencyRecorder, poisson_schedule

N_ROWS = int(os.environ.get("E24_ROWS", "20000"))
N_REQUESTS = int(os.environ.get("E24_REQUESTS", "400"))
N_TRIALS = int(os.environ.get("E24_TRIALS", "3"))
RATE_FACTORS = tuple(
    float(f)
    for f in os.environ.get("E24_RATE_FACTORS", "0.25,1.0,8.0").split(",")
)
N_WARM = 2 * N_REQUESTS
TRAINING_BUDGET = min(200, max(30, N_WARM // 7))
TENANTS = ("alice", "bob")
FULL_SCALE = N_ROWS >= 20_000 and N_REQUESTS >= 400


def _agent_config():
    return AgentConfig(training_budget=TRAINING_BUDGET, error_threshold=0.2)


def _warm(agent, warm_queries):
    """Converge an agent on the warm wave, then freeze learning."""
    agent.submit_batch(warm_queries)
    agent.config.keep_learning_on_fallback = False
    return agent


def _measure_direct(session, warm_queries, serve_queries):
    """Per-query direct ``submit`` seconds on a fresh warmed agent.

    Tight-loop, gc off: the *service demand* of each query, used to
    calibrate the rate sweep and to drive the sequential open-loop
    simulation (optimistic for the baseline, so conservative for the
    gateway's goodput gate).
    """
    agent = _warm(SEAAgent(session.engine, _agent_config()), warm_queries)
    seconds = []
    gc.collect()
    gc.disable()
    try:
        for query in serve_queries:
            t0 = time.perf_counter()
            agent.submit(query)
            seconds.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return seconds


def _paced_direct(session, warm_queries, schedule):
    """Direct ``agent.submit`` latencies under the *same* open-loop pacing.

    The honest comparator for the pass-through p50 gate: a plain agent
    fed the identical Poisson schedule with sleep-pacing, so both sides
    pay the same cold-cache and allocator effects that inter-arrival
    idle time causes.  A tight-loop baseline runs artificially hot and
    would make any front door — even a zero-cost one — look slow.
    """
    agent = _warm(SEAAgent(session.engine, _agent_config()), warm_queries)
    start = time.perf_counter()
    latencies = []
    for req in schedule:
        delay = start + req.arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t0 = time.perf_counter()
        agent.submit(req.payload)
        latencies.append(time.perf_counter() - t0)
    return latencies


def _sequential_open_loop(schedule, service_seconds):
    """Simulate a sequential FIFO server against the same arrivals.

    The honest baseline: one server, no batching, no admission control,
    every request eventually served.  ``finish_i = max(arrival_i,
    finish_{i-1}) + s_i``; goodput counts only within-deadline finishes.
    """
    finish = 0.0
    in_deadline = 0
    latencies = []
    for req, service in zip(schedule, service_seconds):
        finish = max(req.arrival, finish) + service
        latencies.append(finish - req.arrival)
        if finish <= req.deadline:
            in_deadline += 1
    makespan = finish if finish > 0 else 1e-9
    return {
        "goodput_qps": in_deadline / makespan,
        "in_deadline": in_deadline,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


async def _drive(gateway, schedule):
    """Fire the schedule open-loop at the gateway; gather outcomes."""
    recorder = LatencyRecorder()
    answers = []
    start = time.monotonic()

    async def fire(req):
        tenant = TENANTS[req.index % len(TENANTS)]
        delay = start + req.arrival - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        issued = time.monotonic()
        try:
            answer = await gateway.submit(
                req.payload, tenant=tenant, deadline=start + req.deadline
            )
        except AdmissionRejectedError as exc:
            recorder.rejected(exc.reason)
            return
        done = time.monotonic()
        recorder.ok(done - issued, done <= start + req.deadline)
        answers.append(answer)

    async with gateway:
        await asyncio.gather(*(fire(req) for req in schedule))
        makespan = time.monotonic() - start
        stats = gateway.stats()
    return recorder, answers, makespan, stats


def _assert_byte_identity(session, warm_queries, answers):
    """Gateway answers == sequential replay in gateway serving order.

    The gateway keeps no log of what it served: each answer carries its
    tenant agent's ``served_seq``, offset here by the warm wave.
    """
    for tenant in TENANTS:
        served = sorted(
            (a for a in answers if a.tenant == tenant),
            key=lambda a: a.served_seq,
        )
        if not served:
            continue
        reference = _warm(
            SEAAgent(session.engine, _agent_config()), warm_queries
        )
        for position, got in enumerate(served, start=len(warm_queries)):
            assert got.served_seq == position, (tenant, got.served_seq)
            expected = reference.submit(got.query)
            assert got.mode == expected.mode, (tenant, got.mode, expected.mode)
            assert np.array_equal(
                np.asarray(got.value, dtype=float),
                np.asarray(expected.answer, dtype=float),
            ), (tenant, got.value, expected.answer)
            assert got.cost.__dict__ == expected.cost.__dict__


def _run_rate(session, workload, warm_queries, factor, seed):
    serve_queries = workload.batch(N_REQUESTS)
    direct_seconds = _measure_direct(session, warm_queries, serve_queries)
    direct_p50 = float(np.percentile(direct_seconds, 50))
    direct_qps = len(direct_seconds) / sum(direct_seconds)
    rate = factor * direct_qps
    # Tight enough that a sustained-overload backlog blows through it
    # (the sequential baseline must actually *miss* deadlines at high
    # rate), loose enough that scheduler jitter never sheds a
    # pass-through request at low rate.
    deadline = max(0.02, 50.0 * direct_p50)
    schedule = poisson_schedule(
        N_REQUESTS, rate, deadline, seed=seed, payloads=serve_queries
    )
    sequential = _sequential_open_loop(schedule, direct_seconds)
    # The paced baseline only matters where the pass-through gate
    # applies; at overload it would just re-measure the (simulated)
    # sequential collapse at real-time cost.  One half runs before the
    # gateway and one after, pooled, so slow drift in host speed over
    # the trial cancels out of the comparison.
    paced = (
        _paced_direct(session, warm_queries, schedule) if factor <= 0.5 else []
    )

    gateway = ServingGateway(
        session,
        GatewayConfig(
            # Deep enough to absorb the whole burst: with feasibility
            # shedding, deadline-infeasible entries become fast typed
            # rejections at dispatch time, so a deep queue costs no
            # late answers — it lets the scheduler pick the servable
            # subset instead of refusing work the batcher could have
            # amortised.  ``queue_full`` remains the hard bound.
            queue_capacity=max(32, N_REQUESTS),
            max_batch=32,
            default_timeout=deadline,
        ),
        agent_config=_agent_config(),
        own_session=False,  # one session serves the whole sweep
    )
    for tenant in TENANTS:
        _warm(gateway.tenant(tenant).agent, warm_queries)
    gc.collect()
    recorder, answers, makespan, stats = asyncio.run(
        _drive(gateway, schedule)
    )
    if paced:
        paced.extend(_paced_direct(session, warm_queries, schedule))
    paced_p50 = float(np.percentile(paced, 50)) if paced else 0.0
    _assert_byte_identity(session, warm_queries, answers)

    # Bracket the simulated baseline the same way the paced one is:
    # re-measure direct service *after* the gateway phase and average
    # the two FIFO simulations, so host-speed drift between calibration
    # and the real-time gateway run cancels out of the goodput ratio.
    sequential_after = _sequential_open_loop(
        schedule, _measure_direct(session, warm_queries, serve_queries)
    )
    seq_goodput = 0.5 * (
        sequential["goodput_qps"] + sequential_after["goodput_qps"]
    )
    seq_p99 = 0.5 * (sequential["p99_ms"] + sequential_after["p99_ms"])

    summary = recorder.summary(makespan)
    served = max(1, stats["served_total"])
    return {
        "rate_factor": factor,
        "offered_qps": rate,
        "direct_p50_ms": direct_p50 * 1e3,
        "direct_paced_p50_ms": paced_p50 * 1e3,
        "direct_qps": direct_qps,
        "deadline_ms": deadline * 1e3,
        "sequential_goodput_qps": seq_goodput,
        "sequential_p99_ms": seq_p99,
        "goodput_qps": summary["goodput_qps"],
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "p99_ms": summary["p99_ms"],
        "latency_iqr_ms": summary["latency_iqr_ms"],
        "rejection_rate": summary["rejection_rate"],
        "completed": summary["completed"],
        "batched_fraction": stats["coalesced_total"] / served,
        "inline_fraction": stats["inline_total"] / served,
        "mean_batch": served / max(1, stats["batches_total"]),
    }


def _run_closed_loop(session, workload):
    """One back-to-back caller of exact-path statements vs a direct agent.

    The training budget is never exhausted, so every request runs
    ``ExactEngine.execute`` and learns — the cost profile of the
    fallback — and both sides see the same statements in the same
    order.  Direct service is measured before and after the gateway
    pass and pooled, so host-speed drift cancels out of the ratio.
    """
    config = AgentConfig(training_budget=10**9)
    queries = workload.batch(N_REQUESTS)

    def direct():
        agent = SEAAgent(session.engine, config)
        seconds = []
        for query in queries:
            t0 = time.perf_counter()
            agent.submit(query)
            seconds.append(time.perf_counter() - t0)
        return seconds

    async def through_gateway():
        gateway = ServingGateway(
            session, agent_config=config, own_session=False
        )
        seconds = []
        async with gateway:
            for query in queries:
                t0 = time.perf_counter()
                await gateway.submit(query, tenant=TENANTS[0])
                seconds.append(time.perf_counter() - t0)
            return seconds, gateway.stats()

    gc.collect()
    gc.disable()
    try:
        direct_seconds = direct()
        gateway_seconds, stats = asyncio.run(through_gateway())
        direct_seconds += direct()
    finally:
        gc.enable()
    direct_p50 = float(np.percentile(direct_seconds, 50))
    gateway_p50 = float(np.percentile(gateway_seconds, 50))
    return {
        "direct_p50_ms": direct_p50 * 1e3,
        "p50_ms": gateway_p50 * 1e3,
        "p50_ratio": gateway_p50 / direct_p50,
        "inline_share": stats["inline_total"] / stats["served_total"],
        "rho": stats["batcher"]["rho"],
    }


def run_sweep():
    session = SEASession(n_nodes=8)
    table = gaussian_mixture_table(
        N_ROWS, dims=("x0", "x1"), seed=1, name="data", value_bytes=8
    )
    session.load_table(table)
    workload = standard_workload(table, seed=11)
    warm_queries = workload.batch(N_WARM)

    per_rate = {factor: [] for factor in RATE_FACTORS}
    for trial in range(N_TRIALS):
        for i, factor in enumerate(RATE_FACTORS):
            result = _run_rate(
                session, workload, warm_queries, factor, seed=trial * 97 + i
            )
            per_rate[factor].append(result)

    sweep = []
    for factor in RATE_FACTORS:
        trials = per_rate[factor]
        medianed = {
            key: trial_stats([t[key] for t in trials])["median"]
            for key in trials[0]
        }
        medianed["goodput_iqr"] = trial_stats(
            [t["goodput_qps"] for t in trials]
        )["iqr"]
        sweep.append(medianed)
    # At least three sandwiches even when the sweep runs one trial: a
    # 10% gate on one ~0.1 s pass would measure the host, not the path.
    closed_trials = [
        _run_closed_loop(session, workload) for _ in range(max(3, N_TRIALS))
    ]
    closed = {
        key: trial_stats([t[key] for t in closed_trials])["median"]
        for key in closed_trials[0]
    }
    session.close()
    return sweep, closed


def test_e24_gateway(benchmark):
    sweep, closed = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    headers = [
        "rate_factor", "offered_qps", "goodput_qps", "seq_goodput_qps",
        "p50_ms", "p99_ms", "reject_rate", "batched_frac",
    ]
    rows = [
        [
            s["rate_factor"], s["offered_qps"], s["goodput_qps"],
            s["sequential_goodput_qps"], s["p50_ms"], s["p99_ms"],
            s["rejection_rate"], s["batched_fraction"],
        ]
        for s in sweep
    ]
    table = format_table(
        "E24: open-loop gateway serving vs sequential baseline", headers, rows
    )
    low = sweep[0]
    high = sweep[-1]
    extra = {
        "rows": N_ROWS,
        "requests": N_REQUESTS,
        "trials": N_TRIALS,
        "tenants": len(TENANTS),
        "rate_factors": list(RATE_FACTORS),
        "sweep": sweep,
        "passthrough_p50_ratio": low["p50_ms"] / low["direct_paced_p50_ms"],
        "high_rate_goodput_qps": high["goodput_qps"],
        "high_rate_goodput_iqr": high["goodput_iqr"],
        "high_rate_goodput_vs_sequential": (
            high["goodput_qps"] / max(1e-9, high["sequential_goodput_qps"])
        ),
        "high_rate_p99_ms": high["p99_ms"],
        "high_rate_deadline_ms": high["deadline_ms"],
        "closed_loop_p50_ratio": closed["p50_ratio"],
        "closed_loop_inline_share": closed["inline_share"],
        "closed_loop_rho": closed["rho"],
    }
    write_result("e24_gateway", table, headers=headers, rows=rows, extra=extra)
    record_serving_gateway_benchmark("e24_gateway", **extra)

    # Low rate: batching must shrink to pass-through — gateway p50 within
    # 5% of a direct agent.submit fed the same paced schedule.
    assert low["rate_factor"] <= 0.5
    assert extra["passthrough_p50_ratio"] <= 1.05, (
        f"pass-through p50 {low['p50_ms']:.3f}ms vs paced direct "
        f"{low['direct_paced_p50_ms']:.3f}ms"
    )
    assert low["rejection_rate"] == 0.0
    # High rate: goodput must beat the open-loop sequential baseline,
    # with the deadline + admission control bounding the tail.
    assert extra["high_rate_goodput_vs_sequential"] >= (
        2.0 if FULL_SCALE else 1.0
    ), (
        f"gateway goodput {high['goodput_qps']:.1f} q/s vs sequential "
        f"{high['sequential_goodput_qps']:.1f} q/s"
    )
    assert high["p99_ms"] <= 3.0 * high["deadline_ms"], (
        "admission control failed to bound the tail: "
        f"p99 {high['p99_ms']:.1f}ms vs deadline {high['deadline_ms']:.1f}ms"
    )
    if FULL_SCALE:
        # The crossover satellite: batching engages only under load.
        assert high["batched_fraction"] > low["batched_fraction"]
    # Closed loop, one caller: rate x service reads saturation (the leg
    # is vacuous otherwise), yet nobody can join its windows — it must
    # stay inline and cost what a direct submit costs.
    assert closed["rho"] > GatewayConfig().passthrough_rho, closed
    assert closed["inline_share"] >= 0.95, closed
    assert closed["p50_ratio"] <= 1.10, (
        f"closed-loop p50 {closed['p50_ms']:.3f}ms vs direct "
        f"{closed['direct_p50_ms']:.3f}ms"
    )
    benchmark.extra_info["goodput_vs_sequential"] = extra[
        "high_rate_goodput_vs_sequential"
    ]
    benchmark.extra_info["passthrough_p50_ratio"] = extra[
        "passthrough_p50_ratio"
    ]
    benchmark.extra_info["closed_loop_p50_ratio"] = closed["p50_ratio"]
