"""E3 — sustainable query throughput: Fig. 1 system vs Fig. 2 system.

Sec. II.A: the traditional system "cannot scale as query arrival rates
increase".  Using measured per-query service demands (node-seconds) from
both paths, this experiment computes, for a growing offered load, the
cluster utilisation and the response time under an M/D/c approximation —
showing the exact path saturating orders of magnitude before the
data-less path does.

It also measures *real* serving throughput (wall-clock queries/sec) in
the steady state the paper targets: the agent trains and converges on a
warm workload, learning is frozen, and a fresh serving wave is answered
two ways — one ``submit`` call per query vs a single ``submit_batch``.
Both paths return byte-identical answers, modes, and simulated costs
(asserted per trial), so the batched speedup is pure amortisation:
vectorized predictions, one shared scan for all fallbacks, and cached
charge replay.  The median over ``N_TRIALS`` fresh agent pairs lands in
the cumulative repo-root ``BENCH_serving.json`` trajectory.

Scale via ``E03_ROWS`` / ``E03_QUERIES`` (the CI smoke job runs reduced).
"""

import gc
import itertools
import os
import time

import numpy as np

from repro.baselines import ExactEngine
from repro.core import AgentConfig, SEAAgent

from repro.engine import mdc_response_time

from conftest import build_world, standard_workload
from harness import (
    format_table,
    record_serving_benchmark,
    trial_stats,
    wallclock,
    write_result,
)

ARRIVAL_RATES = (0.5, 2.0, 8.0, 12.0, 32.0, 128.0)  # queries/s offered

N_ROWS = int(os.environ.get("E03_ROWS", "50000"))
N_QUERIES = int(os.environ.get("E03_QUERIES", "1000"))
N_WARM = 3 * N_QUERIES  # enough for the error estimates to converge
TRAINING_BUDGET = min(400, max(40, N_WARM // 7))
N_TRIALS = 3


def _warmed_agent(store, warm_queries):
    """A converged agent (trained on the warm wave, learning frozen)
    and the warm wave's records — the agent itself keeps none."""
    agent = SEAAgent(
        ExactEngine(store),
        AgentConfig(training_budget=TRAINING_BUDGET, error_threshold=0.2),
    )
    records = agent.submit_batch(warm_queries)
    agent.config.keep_learning_on_fallback = False
    return agent, records


def _predict_us(agent, queries, calls=2000):
    """Median microseconds of one ``DatalessPredictor.predict`` call.

    The layer under every ``AnswerCache`` miss, timed alone on the frozen
    agent: informational (recorded, not gated).
    """
    pairs = [
        (agent._predictors[q.signature()].predict, q.vector()) for q in queries
    ]
    samples = []
    for predict, vector in itertools.islice(itertools.cycle(pairs), calls):
        start = time.perf_counter()
        predict(vector)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e6


def run_throughput():
    store, table = build_world(n_rows=N_ROWS)
    n_nodes = len(store.topology)
    workload = standard_workload(table, seed=11)
    warm_queries = workload.batch(N_WARM)
    serve_queries = workload.batch(N_QUERIES)

    sequential_qps, batched_qps = [], []
    reference = history = None
    for _ in range(N_TRIALS):
        agent_seq, warm_records = _warmed_agent(store, warm_queries)
        agent_bat, _ = _warmed_agent(store, warm_queries)
        gc.collect()
        gc.disable()
        try:
            seq_records, seq_sec = wallclock(
                lambda: [agent_seq.submit(q) for q in serve_queries]
            )
            bat_records, bat_sec = wallclock(
                lambda: agent_bat.submit_batch(serve_queries)
            )
        finally:
            gc.enable()
        for a, b in zip(seq_records, bat_records):
            assert a.mode == b.mode
            assert np.array_equal(
                np.asarray(a.answer, dtype=float),
                np.asarray(b.answer, dtype=float),
            )
            assert a.cost.__dict__ == b.cost.__dict__
        sequential_qps.append(N_QUERIES / seq_sec)
        batched_qps.append(N_QUERIES / bat_sec)
        reference, history = agent_seq, warm_records + seq_records
    predict_us = _predict_us(reference, serve_queries)

    # Service demands for the M/D/c capacity model come from the full
    # lifecycle (train + serve) records of the last sequential agent.
    exact_demand = float(
        np.mean([r.cost.node_sec for r in history if r.mode != "predicted"])
    )
    dataless_demand = float(
        np.mean([r.cost.node_sec for r in history[TRAINING_BUDGET:]])
    )
    dataless_fraction = reference.stats()["dataless_fraction"]
    rows = []
    for rate in ARRIVAL_RATES:
        t_trad, u_trad = mdc_response_time(rate, exact_demand, n_nodes)
        t_sea, u_sea = mdc_response_time(rate, dataless_demand, n_nodes)
        rows.append([rate, u_trad, t_trad, u_sea, t_sea])

    seq_stats = trial_stats(sequential_qps)
    bat_stats = trial_stats(batched_qps)
    seq_qps = seq_stats["median"]
    bat_qps = bat_stats["median"]
    serve_modes = {}
    for record in history[-N_QUERIES:]:
        serve_modes[record.mode] = serve_modes.get(record.mode, 0) + 1
    serving = {
        "rows": N_ROWS,
        "queries": N_QUERIES,
        "warm_queries": N_WARM,
        "training_budget": TRAINING_BUDGET,
        "trials": N_TRIALS,
        "sequential_qps": seq_qps,
        "sequential_qps_iqr": seq_stats["iqr"],
        "batched_qps": bat_qps,
        "batched_qps_iqr": bat_stats["iqr"],
        "speedup": bat_qps / seq_qps,
        "predict_us": predict_us,
        "serve_predicted": serve_modes.get("predicted", 0),
        "serve_fallback": serve_modes.get("fallback", 0),
        "dataless_fraction": dataless_fraction,
    }
    return rows, dataless_fraction, serving


def test_e03_throughput(benchmark):
    rows, dataless_fraction, serving = benchmark.pedantic(
        run_throughput, rounds=1, iterations=1
    )
    headers = ["arrivals_per_sec", "util_trad", "resp_trad_sec", "util_sea", "resp_sea_sec"]
    table = format_table(
        "E3: response time vs offered load (M/D/c on measured demands)",
        headers,
        rows,
    )
    write_result("e03_throughput", table, headers=headers, rows=rows, extra=serving)
    record_serving_benchmark("e03_throughput", **serving)
    # The traditional system saturates at a load the SEA system absorbs.
    saturated_trad = [r for r in rows if not np.isfinite(r[2])]
    assert saturated_trad, "traditional path should saturate in the sweep"
    first_saturation = saturated_trad[0][0]
    full_scale = N_ROWS >= 50_000 and N_QUERIES >= 1000
    if full_scale:
        # The paper-figure claims need enough serving volume for the
        # dataless fraction to develop; the reduced CI smoke run only
        # gates the batched-vs-sequential throughput below.
        sea_at_that_load = next(r for r in rows if r[0] == first_saturation)
        assert np.isfinite(sea_at_that_load[4]), (
            "SEA must still be stable at the traditional saturation point"
        )
        # Capacity ratio: SEA sustains strictly higher load (util is linear
        # in arrival rate, so the ratio of utilisations is the capacity
        # ratio).
        assert rows[0][1] / rows[0][3] > 1.2
    # Batched serving is the fast path; regressing it below the sequential
    # loop is a perf bug the CI smoke job must catch.
    assert serving["batched_qps"] >= serving["sequential_qps"], (
        f"batched serving ({serving['batched_qps']:.1f} q/s) slower than "
        f"sequential ({serving['sequential_qps']:.1f} q/s)"
    )
    benchmark.extra_info["dataless_fraction"] = dataless_fraction
    benchmark.extra_info["traditional_saturates_at"] = first_saturation
    benchmark.extra_info["sequential_qps"] = serving["sequential_qps"]
    benchmark.extra_info["batched_qps"] = serving["batched_qps"]
    benchmark.extra_info["batched_speedup"] = serving["speedup"]
    benchmark.extra_info["predict_us"] = serving["predict_us"]
