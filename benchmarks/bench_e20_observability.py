"""E20 — observability overhead and flight-recorder determinism.

DESIGN §10's contract has two measurable halves:

1. **Detached is (nearly) free.**  Every ``submit`` now runs through the
   flight-recorder hooks (`profile_begin`/`profile_end`), the SLO feed
   and the anomaly monitor plumbing — all behind ``observer.enabled``
   guards on the null observer.  This experiment serves the E3 steady
   state two ways on frozen, identically warmed agents: the full
   ``submit`` path with no observer attached vs the bare ``_serve``
   inner path that predates all instrumentation.  The gap *is* the
   detached instrumentation overhead; the gate holds the median to
   ``E20_MAX_OVERHEAD`` (default 5%).

2. **Profiles repeat.**  Two identically seeded sessions must export
   byte-identical profile JSONL — nothing host-timed may enter a
   QueryProfile.

Attached-observer throughput is also measured (informational — that
path pays for real recording).  Headlines land in the cumulative
repo-root ``BENCH_obs.json`` trajectory for the regression sentinel.

Scale via ``E20_ROWS`` / ``E20_QUERIES`` (the CI smoke job runs reduced).
"""

import gc
import os

import numpy as np

from repro.baselines import ExactEngine
from repro.core import AgentConfig, SEAAgent
from repro.core.agent import ServedQuery
from repro.data import gaussian_mixture_table
from repro.obs import StackObserver
from repro.session import SEASession

from conftest import build_world, standard_workload
from harness import (
    format_table,
    record_obs_benchmark,
    trial_stats,
    wallclock,
    write_result,
)

N_ROWS = int(os.environ.get("E20_ROWS", "50000"))
N_QUERIES = int(os.environ.get("E20_QUERIES", "1000"))
N_WARM = 3 * N_QUERIES
TRAINING_BUDGET = min(400, max(40, N_WARM // 7))
N_TRIALS = int(os.environ.get("E20_TRIALS", "5"))
MAX_OVERHEAD = float(os.environ.get("E20_MAX_OVERHEAD", "0.05"))


def _warmed_agent(store, warm_queries, observer=None):
    """A converged agent: trained on the warm wave, learning frozen."""
    agent = SEAAgent(
        ExactEngine(store),
        AgentConfig(training_budget=TRAINING_BUDGET, error_threshold=0.2),
    )
    if observer is not None:
        agent.attach_observer(observer)
    agent.submit_batch(warm_queries)
    agent.config.keep_learning_on_fallback = False
    return agent


def _profile_jsonl() -> str:
    """Profiles JSONL from one deterministic session."""
    table = gaussian_mixture_table(
        4000, dims=("x0", "x1"), seed=5, name="data"
    )
    with SEASession(
        n_nodes=4,
        config=AgentConfig(training_budget=6, error_threshold=0.05, warmup=4),
    ) as session:
        observer = session.attach_observer()
        session.load_table(table)
        workload = standard_workload(table, seed=9)
        for query in workload.batch(8):
            session.submit(query)
        session.submit_batch(workload.batch(8))
        return observer.profiles.to_jsonl()


def run_observability():
    store, table = build_world(n_rows=N_ROWS)
    workload = standard_workload(table, seed=11)
    warm_queries = workload.batch(N_WARM)
    serve_queries = workload.batch(N_QUERIES)

    bare_qps, detached_qps, attached_qps = [], [], []
    for _ in range(N_TRIALS):
        agent_bare = _warmed_agent(store, warm_queries)
        agent_detached = _warmed_agent(store, warm_queries)
        agent_attached = _warmed_agent(store, warm_queries, StackObserver())
        gc.collect()
        gc.disable()
        try:
            # Bare: the pre-instrumentation inner serving path.
            _, bare_sec = wallclock(
                lambda: [
                    agent_bare._serve(query) for query in serve_queries
                ]
            )
            # Detached: the full submit path, null observer (what a user
            # who never attaches an observer pays).
            detached_records, detached_sec = wallclock(
                lambda: [
                    agent_detached.submit(query) for query in serve_queries
                ]
            )
            # Attached: full recording (informational).
            attached_records, attached_sec = wallclock(
                lambda: [
                    agent_attached.submit(query) for query in serve_queries
                ]
            )
        finally:
            gc.enable()
        for a, b in zip(detached_records, attached_records):
            assert isinstance(a, ServedQuery) and isinstance(b, ServedQuery)
            assert a.mode == b.mode
            assert np.array_equal(
                np.asarray(a.answer, dtype=float),
                np.asarray(b.answer, dtype=float),
            )
        assert all(r.profile is None for r in detached_records)
        assert all(r.profile is not None for r in attached_records)
        bare_qps.append(N_QUERIES / bare_sec)
        detached_qps.append(N_QUERIES / detached_sec)
        attached_qps.append(N_QUERIES / attached_sec)

    bare = trial_stats(bare_qps)
    detached = trial_stats(detached_qps)
    attached = trial_stats(attached_qps)
    # Overhead of the detached instrumented path over the bare inner loop.
    overhead = bare["median"] / detached["median"] - 1.0

    byte_identical = _profile_jsonl() == _profile_jsonl()

    result = {
        "rows": N_ROWS,
        "queries": N_QUERIES,
        "warm_queries": N_WARM,
        "training_budget": TRAINING_BUDGET,
        "trials": N_TRIALS,
        "bare_qps": bare["median"],
        "detached_qps": detached["median"],
        "detached_qps_iqr": detached["iqr"],
        "attached_qps": attached["median"],
        "detached_overhead": overhead,
        "attached_overhead": bare["median"] / attached["median"] - 1.0,
        "profiles_byte_identical": byte_identical,
    }
    return result


def test_e20_observability(benchmark):
    result = benchmark.pedantic(run_observability, rounds=1, iterations=1)
    headers = ["path", "qps_median", "overhead_vs_bare"]
    rows = [
        ["bare _serve loop", result["bare_qps"], 0.0],
        ["submit, detached", result["detached_qps"], result["detached_overhead"]],
        ["submit, attached", result["attached_qps"], result["attached_overhead"]],
    ]
    table = format_table(
        "E20: serving throughput with and without observability", headers, rows
    )
    write_result(
        "e20_observability", table, headers=headers, rows=rows, extra=result
    )
    record_obs_benchmark("e20_observability", **result)
    assert result["profiles_byte_identical"], (
        "QueryProfile JSONL must be byte-identical across identical sessions"
    )
    assert result["detached_overhead"] <= MAX_OVERHEAD, (
        f"detached instrumentation overhead "
        f"{result['detached_overhead'] * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.1f}% "
        f"(bare {result['bare_qps']:.1f} q/s vs "
        f"detached {result['detached_qps']:.1f} q/s)"
    )
    benchmark.extra_info.update(
        {
            "detached_qps": result["detached_qps"],
            "attached_qps": result["attached_qps"],
            "detached_overhead": result["detached_overhead"],
        }
    )
