"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at the ``--smoke`` size (tables a tenth of the real
ones, a one-second window, one set-up), which BENCHMARK.json never names.
"""

import asyncio
import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import drivers as D  # noqa: E402
import metrics as M  # noqa: E402
import workloads as W  # noqa: E402

CLOSED = [name for name in W.WORKLOADS if name != "open_mixed"]


def run_cli(workload, seed=1, trace=0):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--smoke",
            "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def first_runs():
    return {name: run_cli(name) for name in W.WORKLOADS}


def test_benchmark_json_matches_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    expected = M.benchmark_json(
        committed["command"],
        committed["paths"],
        committed["run_seconds"],
        W.WORKLOADS.values(),
    )
    assert committed == expected
    assert "--smoke" not in committed["command"]
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_end_to_end_metrics_are_all_printed_once(first_runs, workload):
    lines, result = first_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in M.END_TO_END]
    for name, unit, _, _ in M.END_TO_END:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert math.isfinite(entry["value"])
        assert sum(line.startswith(name + " = ") for line in lines) == 1


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_traced_run_prints_every_layer_metric_and_reconciles(workload):
    started = time.perf_counter()
    lines, result = run_cli(workload, trace=1)
    assert time.perf_counter() - started < 10.0
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, *_ in M.PER_LAYER]
    for name, unit, _ in M.PER_LAYER:
        entry = result["metrics"][name]
        assert entry["unit"] == unit and math.isfinite(entry["value"])
        assert sum(line.startswith(name + " = ") for line in lines) == 1
    assert result["metrics"]["trace.residual_share"]["value"] <= 0.05
    assert result["metrics"]["core.cache_stale_rejected"]["value"] == 0
    with open(os.path.join(HERE, "out", f"trace_{workload}.json")) as handle:
        trace = json.load(handle)
    assert trace["spans_total"] == result["metrics"]["trace.spans_recorded"]["value"]
    assert {"id", "name", "start_ns", "end_ns", "parent", "request_id"} == set(
        trace["spans"][0]
    )


@pytest.mark.parametrize("workload", CLOSED)
def test_exact_counts_repeat_bit_for_bit_on_one_seed(first_runs, workload):
    _, first = first_runs[workload]
    _, second = run_cli(workload)
    for name in M.EXACT_ON_CLOSED_LOOPS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["attempted"] == second["attempted"]


def test_seed_decides_the_generated_inputs():
    def inputs(seed):
        rng = W.workload_rng(seed, "hot_closed", "window")
        table = W.make_table(W.WORKLOADS["hot_closed"], seed, scale=0.05)
        return W.hot_pool(rng, 8) + W.scan_statements(rng, 8, 100.0), table

    (same_a, table_a), (same_b, table_b) = inputs(1), inputs(1)
    other, table_c = inputs(2)
    assert same_a == same_b
    assert (table_a.column("x0") == table_b.column("x0")).all()
    assert same_a != other
    assert (table_a.column("x0") != table_c.column("x0")).any()


class _InstantGateway:
    """Answers at once: isolates the pacer from the program."""

    class _Answer:
        queued_sec = 0.0
        batch_size = 1
        service_sec = 0.0

    async def submit(self, sql, tenant="default", deadline=None):
        return self._Answer()

    def stats(self):
        return {}


def _paced_phase(starve):
    rng = W.workload_rng(1, "open_mixed", "test")
    offsets = W.poisson_offsets(rng, 400.0, 0.5)
    schedule = D.Schedule("steady", 400.0, offsets, ["SELECT 1"] * len(offsets))
    deployment = D.Deployment(
        workload=W.WORKLOADS["open_mixed"], session=None, gateway=_InstantGateway(),
        tenants=("t0",), setup_s=0.0, put_table_s=0.0, warm_s=0.0,
    )

    async def hog():
        while True:
            time.sleep(0.004)  # a busy neighbour on the generator's loop
            await asyncio.sleep(0)

    async def main():
        task = asyncio.ensure_future(hog()) if starve else None
        try:
            return await D.open_phase(deployment, schedule, keep_answers=False)
        finally:
            if task is not None:
                task.cancel()

    return asyncio.run(main())


def test_pacer_check_trips_only_when_starved():
    healthy = _paced_phase(starve=False)
    assert healthy.answered == healthy.offered
    D.check_pacer(healthy.idle_lag_ms)
    starved = _paced_phase(starve=True)
    with pytest.raises(D.PacerStarved):
        D.check_pacer(starved.idle_lag_ms)
