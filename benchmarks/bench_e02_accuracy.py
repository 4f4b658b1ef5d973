"""E2 — data-less answer accuracy vs training-set size ([26]-[29]).

Reproduces the learning curve behind P2: with more intercepted training
queries, the agent serves a larger fraction of the workload data-lessly
and with lower relative error, across count / mean / regression-slope
aggregates (the query classes the paper's prior work [26]-[29] covered).
"""

import numpy as np

from repro.baselines import ExactEngine
from repro.core import AgentConfig, SEAAgent
from repro.queries import Count, Mean, RegressionCoefficients

from conftest import build_world, standard_workload
from harness import format_table, write_result

TRAIN_SIZES = (100, 300, 800)
EVAL_QUERIES = 200


def evaluate(aggregate, aggregate_label):
    store, table = build_world(n_rows=50_000)
    rows = []
    for budget in TRAIN_SIZES:
        agent = SEAAgent(
            ExactEngine(store),
            AgentConfig(training_budget=budget, error_threshold=0.2),
        )
        workload = standard_workload(table, aggregate=aggregate, seed=7)
        records = [
            agent.submit(query)
            for query in workload.batch(budget + EVAL_QUERIES)
        ]
        served = [r for r in records[budget:] if r.mode == "predicted"]
        errors = []
        for record in served:
            truth = record.query.evaluate(table)
            predicted = np.atleast_1d(np.asarray(record.answer, dtype=float))
            actual = np.atleast_1d(np.asarray(truth, dtype=float))
            denom = max(float(np.linalg.norm(actual)), 1.0)
            errors.append(float(np.linalg.norm(actual - predicted)) / denom)
        rows.append(
            [
                aggregate_label,
                budget,
                len(served) / EVAL_QUERIES,
                float(np.median(errors)) if errors else float("nan"),
                float(np.quantile(errors, 0.9)) if errors else float("nan"),
            ]
        )
    return rows


def run_accuracy():
    rows = []
    rows += evaluate(Count(), "count")
    rows += evaluate(Mean("value"), "mean")
    rows += evaluate(
        RegressionCoefficients("value", ["x0", "x1"]), "regression"
    )
    return rows


def test_e02_accuracy_vs_training(benchmark):
    rows = benchmark.pedantic(run_accuracy, rounds=1, iterations=1)
    headers = ["aggregate", "train_n", "dataless_frac", "median_rel_err", "p90_rel_err"]
    table = format_table(
        "E2: data-less accuracy and coverage vs training queries",
        headers,
        rows,
    )
    write_result("e02_accuracy", table, headers=headers, rows=rows)
    by_agg = {}
    for label, budget, frac, med, p90 in rows:
        by_agg.setdefault(label, []).append((budget, frac, med))
    for label, series in by_agg.items():
        # Coverage grows with training size...
        assert series[-1][1] >= series[0][1], label
    # ...and count queries reach good accuracy with enough training.
    count_final = by_agg["count"][-1]
    assert count_final[1] > 0.15
    assert count_final[2] < 0.15
    benchmark.extra_info["count_final_median_err"] = count_final[2]
