#!/usr/bin/env python3
"""End-to-end benchmark of the SEA reproduction, through its front door.

    python3 benchmarks/e2e/run.py --workload hot_closed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` sets the program up three times (``setup_s`` is the
median), runs one timed window on the last deployment, checks answers
and prints every end-to-end metric.  ``--trace 1`` runs the window twice
on two identical deployments — once bare, once with the timing wrappers
of ``tracing.py`` installed — and prints every per-layer metric; spans go
to ``benchmarks/e2e/out/trace_<workload>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is non-zero when an answer was
wrong, a durable write was lost, or the load generator lost its schedule.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")

#: Deployments per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: ``--smoke``: a size for tests only, never named by BENCHMARK.json.
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 1.0


def _import_program() -> None:
    """Put this directory and ``src/`` on the path; fail fast without them."""
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(
            f"benchmarks/e2e: cannot import the program under test from "
            f"{SRC}: {exc}\n"
        )
        raise SystemExit(2)


_import_program()

import numpy as np  # noqa: E402

import drivers as D  # noqa: E402
import metrics as M  # noqa: E402
import workloads as W  # noqa: E402
from repro.queries.sql import parse_query  # noqa: E402
from tracing import Tracer, layer_shares  # noqa: E402


# Inputs -----------------------------------------------------------------------
class Job:
    """One workload's inputs at one size, generated once per run."""

    def __init__(
        self, workload: W.Workload, seed: int, seconds: float, scale: float, parts: int = 1
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.rows = max(4_096, int(workload.rows * scale))
        name = workload.name
        warm_n = max(300, int(workload.warm_requests * min(1.0, scale * 4)))
        rng = W.workload_rng(seed, name, "window")
        n = max(200, int(workload.ops_per_second * seconds))
        self.statement_parts: List[List[str]] = []
        self.plan: Optional[D.RWPlan] = None
        self.schedules: List[D.Schedule] = []
        if name == "hot_closed":
            pool = W.hot_pool(rng, W.HOT_POOL)
            draws = W.zipf_draws(
                rng, len(pool), warm_n + parts * n, W.HOT_ZIPF_EXPONENT
            )
            self.warm = {"default": [pool[i] for i in draws[:warm_n]]}
            for p in range(parts):
                picks = draws[warm_n + p * n : warm_n + (p + 1) * n]
                self.statement_parts.append([pool[i] for i in picks])
        elif name == "scan_closed":
            ts_max = float((self.rows - 1) // workload.ts_run)
            warm_rng = W.workload_rng(seed, name, "warm")
            self.warm = {"default": W.band_statements(warm_rng, warm_n)}
            self.statement_parts.append(W.scan_statements(rng, n, ts_max))
        elif name == "mixed_rw":
            cycles = max(20, int(n / W.RW_OPS_PER_CYCLE))
            self.warm = {"default": D.rw_warm_statements(workload, seed)[:warm_n]}
            self.plan = D.plan_rw(workload, seed, cycles, self.rows)
        else:
            pool, capacity, self.schedules = D.open_plan(workload, seed, seconds)
            self.statement_parts.append(capacity)
            warm = D.open_warm_statements(workload, seed, pool)
            self.warm = {t: s[:warm_n] for t, s in warm.items()}

    async def deploy(self) -> D.Deployment:
        return await D.deploy(self.workload, self.seed, self.warm, self.scale)

    async def window(
        self, deployment: D.Deployment, tracer: Optional[Tracer] = None, part: int = 0
    ) -> D.Window:
        if self.plan is not None:
            return await D.rw_window(deployment, self.plan, tracer)
        statements = self.statement_parts[part]
        keep = D.sample_mask(
            self.seed, self.workload.name, len(statements), self.workload.oracle_every
        )
        if self.schedules:
            return await D.open_window(
                deployment, statements, self.schedules, keep, tracer
            )
        return await D.read_window(deployment, statements, keep, tracer)

    def signature_queries(self) -> List:
        """One parsed query per predictor signature this workload sends."""
        seen: Dict[str, object] = {}
        samples: List[str] = []
        for statements in self.warm.values():
            samples += statements[:50]
        for statements in self.statement_parts:
            samples += statements[:50]
        if self.plan is not None:
            samples += self.plan.reads[0]
        for schedule in self.schedules:
            samples += schedule.statements[:200]
        for sql in samples:
            query = parse_query(sql)
            seen.setdefault(query.signature(), query)
        return list(seen.values())


# Measurements shared by both modes ---------------------------------------------
def counters(deployment: D.Deployment) -> Dict[str, float]:
    """Cumulative program counters, read at a window boundary."""
    out: Dict[str, float] = {
        "hits": 0.0,
        "misses": 0.0,
        "evictions": 0.0,
        "invalidations": 0.0,
        "stale_rejected": 0.0,
        "state_bytes": 0.0,
    }
    for tenant in deployment.tenants:
        agent = deployment.gateway.tenant(tenant).agent
        out["state_bytes"] += agent.state_bytes()
        cache = agent.cache
        if cache is not None:
            out["hits"] += cache.hits
            out["misses"] += cache.misses
            out["evictions"] += cache.evictions
            out["invalidations"] += cache.invalidations
            out["stale_rejected"] += cache.stale_rejected
    ingest = deployment.session.ingest
    if ingest is not None:
        out["epochs_closed"] = float(ingest.n_epochs_closed)
        out["compactions"] = float(ingest.n_compactions)
        out["retries"] = float(ingest.n_retries)
        out["wal_syncs"] = float(ingest.wal.n_syncs)
        out["wal_high_water"] = float(ingest.wal.high_water_bytes)
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(window: D.Window, setup_s: float) -> Dict[str, float]:
    room = window.space
    return {
        "setup_s": setup_s,
        "throughput_qps": window.throughput,
        "latency_p50_ms": D.chunked_percentile(window.read_latency_ms, 50),
        "dataless_share": window.mode_share("predicted"),
        "accurate_answer_share": window.checks.accurate_share,
        "stored_bytes_per_user_byte": (room["stored_bytes"] + room["wal_bytes"])
        / room["user_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tally(window: D.Window, stale: float) -> Tuple[bool, int, int]:
    """(correct, attempted, failed) for the result line."""
    checks = window.checks
    failed = checks.failed + int(stale)
    correct = checks.wrong == 0 and stale == 0
    return correct, int(window.operations), int(failed)


# --trace 0 ---------------------------------------------------------------------
async def measure(job: Job, setups: int):
    """Set up ``setups`` times, time one window on the last deployment."""
    deployment = await job.deploy()
    setup_times = [deployment.setup_s]
    for _ in range(setups - 1):
        await deployment.close()
        del deployment
        gc.collect()  # drop the discarded deployment before the next
        deployment = await job.deploy()
        setup_times.append(deployment.setup_s)
    window = await job.window(deployment)
    stale = counters(deployment)["stale_rejected"]
    values = end_to_end(window, statistics.median(setup_times))
    await deployment.close()
    return values, tally(window, stale)


# --trace 1 ---------------------------------------------------------------------
async def trace(job: Job):
    """Bare window on one deployment, traced window on an identical one."""
    workload = job.workload
    values = {name: 0.0 for name, _, _ in M.PER_LAYER}

    bare_deployment = await job.deploy()
    bare = await job.window(bare_deployment)
    if workload.observer_pass:
        # Second pass on the same warm deployment with recording on: what
        # always-on observability costs the hottest path.
        observer = bare_deployment.gateway.attach_observer()
        attached = await job.window(bare_deployment, part=1)
        values["obs.attached_throughput_qps"] = attached.throughput
        values["obs.attached_overhead_share"] = (
            1.0 - attached.throughput / bare.throughput
        )
        values["obs.profiles_recorded"] = float(len(observer.profiles))
        values["obs.profiles_dropped"] = float(observer.profiles.n_dropped)
    await bare_deployment.close()
    del bare_deployment
    gc.collect()

    deployment = await job.deploy()
    tracer = Tracer()
    tracer.install(deployment.session, deployment.gateway, job.signature_queries())
    before = counters(deployment)
    try:
        window = await job.window(deployment, tracer)
    finally:
        tracer.remove()
    after = counters(deployment)
    room = window.space
    delta = {k: after[k] - before.get(k, 0.0) for k in after}

    summary = tracer.summarize(concurrent=bool(window.phases))
    # Spans cover every part of an open-loop window, not only ``steady``.
    reads = max(1, window.reads_answered)

    def per_read(name: str, key: str = "total_ns") -> float:
        return summary.get(name, {}).get(key, 0.0) / reads / 1e6

    def calls(name: str) -> float:
        return float(summary.get(name, {}).get("calls", 0))

    def per_call(name: str) -> float:
        row = summary.get(name)
        return row["total_ns"] / row["calls"] / 1e6 if row else 0.0

    exact = calls("engine.execute") + tracer.counts["batch_jobs"]
    plans = max(1.0, tracer.counts["plans"])
    lookups = delta["hits"] + delta["misses"]
    values.update(
        {
            "queries.parse_ms": per_read("queries.parse"),
            "serve.submit_self_ms": per_read("serve.submit", "self_ns")
            + per_read("serve.submit.queued", "self_ns")
            + per_read("serve.tenant_serve", "self_ns"),
            "core.submit_self_ms": per_read("core.submit", "self_ns")
            + per_read("core.submit_batch", "self_ns"),
            "core.cache_lookup_ms": per_read("core.cache_lookup"),
            "core.cache_hit_rate": delta["hits"] / lookups if lookups else 0.0,
            "core.cache_evictions": delta["evictions"],
            "core.predict_ms": per_read("core.predict"),
            "core.predict_calls": calls("core.predict"),
            "engine.execute_ms": per_read("engine.execute"),
            "engine.execute_calls": calls("engine.execute"),
            "engine.execute_many_ms": per_read("engine.execute_many"),
            "engine.batch_jobs_mean": tracer.counts["batch_jobs"]
            / max(1.0, calls("engine.execute_many")),
            "engine.plan_ms": per_read("engine.plan"),
            "engine.map_kernel_ms": per_read("engine.map_kernel"),
            "engine.reduce_self_ms": per_read("engine.execute", "self_ns")
            + per_read("engine.execute_many", "self_ns"),
            "parallel.run_ms": per_read("parallel.run"),
            "parallel.run_self_ms": per_read("parallel.run", "self_ns"),
            "parallel.morsels_per_run": tracer.counts["morsels"]
            / max(1.0, calls("parallel.run")),
            "cluster.read_ms": per_read("cluster.read"),
            "cluster.read_calls_per_query": calls("cluster.read") / max(1.0, exact),
            "engine.partitions_scanned_per_query": tracer.counts["partitions_scanned"]
            / plans,
            "engine.partitions_skipped_per_query": tracer.counts["partitions_skipped"]
            / plans,
            "engine.partitions_synopsis_per_query": tracer.counts[
                "partitions_synopsis"
            ]
            / plans,
            "engine.sim_bytes_scanned_per_query": window.sim_bytes / reads,
            "engine.sim_elapsed_ms_per_query": window.sim_elapsed_s / reads * 1e3,
            "engine.nodes_touched_per_query": window.nodes_touched / reads,
            "core.learn_ms": per_read("core.learn"),
            "core.learn_calls": calls("core.learn"),
            "core.dataless_share": window.mode_share("predicted"),
            "core.fallback_share": window.mode_share("fallback"),
            "core.train_share": window.mode_share("train"),
            "core.state_bytes": after["state_bytes"],
            "core.answer_rel_err_p95": percentile(window.checks.rel_errors, 95),
            "core.cache_invalidations": delta["invalidations"],
            "core.cache_stale_rejected": after["stale_rejected"],
            "cluster.put_table_s": deployment.put_table_s,
            "core.warm_s": deployment.warm_s,
            "cluster.stored_bytes": room["stored_bytes"],
            "cluster.user_bytes": room["user_bytes"],
            "cluster.synopsis_bytes": room["synopsis_bytes"],
            "trace.spans_recorded": float(len(tracer.spans)),
        }
    )
    if workload.ingest:
        values.update(
            {
                "ingest.write_rows_per_s": window.rows_appended
                / (window.write_ms.sum() / 1e3),
                "ingest.write_p99_ms": percentile(window.write_ms, 99),
                "ingest.append_ms": per_call("ingest.append"),
                "ingest.delete_ms": per_call("ingest.delete"),
                "ingest.advance_ms": per_call("ingest.advance"),
                "ingest.epoch_close_p50_ms": percentile(window.epoch_close_ms, 50),
                "ingest.epoch_close_p99_ms": percentile(window.epoch_close_ms, 99),
                "ingest.epochs_closed": delta["epochs_closed"],
                "ingest.compactions": delta["compactions"],
                "cluster.compact_partition_ms": per_call("cluster.compact_partition"),
                "ingest.wal_bytes_per_user_byte": after["wal_high_water"]
                / (window.rows_appended * W.USER_BYTES_PER_ROW),
                "ingest.wal_syncs": delta["wal_syncs"],
                "ingest.wal_high_water_bytes": after["wal_high_water"],
                "ingest.pending_delta_rows_max": float(window.pending_delta_rows_max),
                "ingest.retries": delta["retries"],
                "ingest.recover_ms": per_call("ingest.recover"),  # after the window
                "ingest.dirty_read_share": tracer.counts["dirty_reads"] / reads,
            }
        )
    steady = window.phases.get("steady")
    overload = window.phases.get("overload")
    # What the gateway did with the requests: the overload phase of the
    # open loop, the whole window of a closed one.
    seen = overload if overload is not None else window
    stats0, stats1 = seen.gateway_before, seen.gateway_after
    served = max(1, stats1["served_total"] - stats0["served_total"])
    values.update(
        {
            "serve.queue_wait_p50_ms": percentile(seen.queue_wait_ms, 50),
            "serve.queue_wait_p99_ms": percentile(seen.queue_wait_ms, 99),
            "serve.batch_size_mean": float(np.mean(seen.batch_sizes)),
            "serve.coalesced_share": (
                stats1["coalesced_total"] - stats0["coalesced_total"]
            )
            / served,
            "serve.inline_share": (stats1["inline_total"] - stats0["inline_total"])
            / served,
            "serve.batch_window_ms": stats1["batcher"]["window"] * 1e3,
            "serve.useful_work_share": 1.0,
        }
    )
    if overload is not None:
        shed = stats1["queue_shed_total"] - stats0["queue_shed_total"]
        late = overload.answered - overload.in_deadline
        values.update(
            {
                "serve.refused_share": overload.refused / overload.offered,
                "serve.shed_share": shed / overload.offered,
                "serve.late_share": late / overload.offered,
                "serve.useful_work_share": overload.in_deadline
                / max(1, overload.answered),
                "serve.overload_goodput_qps": overload.goodput,
                "serve.gen_lag_p99_ms": percentile(steady.lag_ms, 99),
                "serve.gen_idle_lag_p99_ms": percentile(steady.idle_lag_ms, 99),
            }
        )

    # Harness validity: what tracing cost, and how much of the time the
    # harness measured from outside the spans do not cover.
    if overload is not None:
        # An open-loop window is mostly idle by design, so reconcile the
        # spans with the gateway's own per-dispatch host timer instead.
        measured_ns = window.service_s * 1e9
        covered_ns = summary.get("serve.tenant_serve", {}).get("total_ns", 0.0)
    else:
        # The read latencies the harness timed itself, against the spans of
        # its own parse and submit calls.
        measured_ns = window.read_latency_ms.sum() * 1e6
        covered_ns = float(tracer.harness_ns())
    values["serve.latency_p99_ms"] = D.chunked_percentile(bare.read_latency_ms, 99)
    values["trace.overhead_share"] = 1.0 - window.throughput / bare.throughput
    values["trace.residual_share"] = abs(measured_ns - covered_ns) / measured_ns
    shares = layer_shares(summary)
    values["trace.layer_share_front"] = sum(
        shares.get(layer, 0.0) for layer in ("queries", "serve", "core")
    )
    values["trace.layer_share_scan"] = sum(
        shares.get(layer, 0.0) for layer in ("engine", "parallel", "cluster", "learn")
    )
    correct, attempted, failed = tally(window, after["stale_rejected"])
    # A wrapper must not change what the program answers.
    if not window.phases and not np.array_equal(window.modes, bare.modes):
        correct = False
    values["check.fail_share"] = failed / attempted
    values["check.exact_answers_checked"] = float(window.checks.exact_checked)
    values["check.predicted_answers_checked"] = float(len(window.checks.rel_errors))
    tracer.write(
        os.path.join(OUT, f"trace_{workload.name}.json"),
        {
            "workload": workload.name,
            "seed": job.seed,
            "read_requests": reads,
            "layer_shares": shares,
        },
        summary,
    )
    await deployment.close()
    return values, (correct, attempted, failed)


# Entry point -------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny tables and one set-up: for test_e2e_smoke.py only",
    )
    return parser.parse_args(argv)


def report(values: Dict[str, float], traced: bool) -> Dict[str, Dict[str, object]]:
    declared = (
        [(n, u, b, None) for n, u, b in M.PER_LAYER] if traced else M.END_TO_END
    )
    out = {}
    for name, unit, better, bound in declared:
        value = float(values[name])
        limit = "" if bound is None else f", may worsen by {bound:.2f}"
        print(f"{name} = {value!r} {unit} ({better} is better{limit})")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = W.WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else 20.0
    )
    if seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    try:
        if args.trace:
            # Two deployments share the budget (three windows with the
            # observer pass).
            parts = 2 if workload.observer_pass else 1
            job = Job(workload, args.seed, seconds / (parts + 1), scale, parts)
            values, verdict = asyncio.run(trace(job))
        else:
            job = Job(workload, args.seed, seconds, scale)
            values, verdict = asyncio.run(measure(job, 1 if args.smoke else SETUPS))
    except D.PacerStarved as exc:
        sys.stderr.write(f"invalid run: {exc}\n")
        return 3
    correct, attempted, failed = verdict
    metrics = report(values, bool(args.trace))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
