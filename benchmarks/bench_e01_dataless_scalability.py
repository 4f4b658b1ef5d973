"""E1 — Fig.1 vs Fig.2: query cost vs data size under both paradigms.

Reproduces the paper's central architectural claim (Sec. III.B): exact
BDAS processing cost grows with data size and touches every data node,
while the data-less agent's serving cost is "de facto insensitive to data
sizes" and touches none.
"""

import numpy as np

from repro.baselines import ExactEngine
from repro.core import AgentConfig, SEAAgent

from repro.obs import StackObserver

from conftest import build_world, standard_workload
from harness import format_table, metrics_snapshot, write_result

SIZES = (10_000, 50_000, 400_000)


def run_scalability():
    rows = []
    snapshot = {}
    for n_rows in SIZES:
        # 512-byte values model wide analytical records (payload columns
        # ride along with the queried dimensions).
        store, table = build_world(n_rows=n_rows, value_bytes=512)
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=300, error_threshold=0.2),
        )
        if n_rows == SIZES[-1]:
            # Per-query phase/byte telemetry for the largest deployment
            # rides along in the machine-readable result.
            agent.attach_observer(StackObserver())
        workload = standard_workload(table)
        records = [agent.submit(query) for query in workload.batch(700)]
        exact = [r.cost for r in records if r.mode != "predicted"]
        predicted = [r.cost for r in records if r.mode == "predicted"]
        if not predicted:
            continue
        rows.append(
            [
                n_rows,
                float(np.mean([c.elapsed_sec for c in exact])),
                float(np.mean([c.elapsed_sec for c in predicted])),
                float(np.mean([c.elapsed_sec for c in exact]))
                / float(np.mean([c.elapsed_sec for c in predicted])),
                float(np.mean([c.nodes_touched for c in exact])),
                float(np.mean([c.nodes_touched for c in predicted])),
                float(np.mean([c.bytes_scanned for c in exact])),
                0.0,
            ]
        )
        snapshot = metrics_snapshot(agent.observer) or snapshot
    return rows, snapshot


def test_e01_dataless_scalability(benchmark):
    rows, snapshot = benchmark.pedantic(run_scalability, rounds=1, iterations=1)
    headers = [
        "rows",
        "exact_sec",
        "dataless_sec",
        "speedup",
        "exact_nodes",
        "dataless_nodes",
        "exact_bytes",
        "dataless_bytes",
    ]
    table = format_table(
        "E1: exact (Fig.1) vs data-less (Fig.2) per-query cost vs data size",
        headers,
        rows,
    )
    write_result(
        "e01_dataless_scalability", table, headers=headers, rows=rows,
        extra={"metrics": snapshot},
    )
    benchmark.extra_info["metrics"] = snapshot
    assert len(rows) == len(SIZES)
    # Exact latency grows with data; data-less latency stays flat.
    exact_latencies = [r[1] for r in rows]
    dataless_latencies = [r[2] for r in rows]
    assert exact_latencies[-1] > exact_latencies[0] * 2
    assert dataless_latencies[-1] < dataless_latencies[0] * 1.5
    # Data-less queries touch zero data nodes and scan zero bytes.
    assert all(r[5] <= 1.0 for r in rows)
    assert all(r[7] == 0.0 for r in rows)
    # Speedup widens with scale (the "orders of magnitude" shape).
    assert rows[-1][3] > rows[0][3]
    benchmark.extra_info["speedup_at_largest"] = rows[-1][3]
