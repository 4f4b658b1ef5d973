"""Quickstart: data-less analytics with the SEA agent (Fig. 2 of the paper).

Builds a simulated 8-node cluster holding a clustered 100k-row table,
stands a SEA agent in front of the exact MapReduce engine, replays an
analyst workload through it, and reports what the agent achieved:
how many queries were answered *without touching any base data*, how
accurate those answers were, and what they cost compared to exact
execution.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    AgentConfig,
    ClusterTopology,
    Count,
    DistributedStore,
    ExactEngine,
    InterestProfile,
    SEAAgent,
    WorkloadGenerator,
    gaussian_mixture_table,
)


def main():
    # 1. A cluster and a stored table (the BDAS back-end of Fig. 1).
    topology = ClusterTopology.single_datacenter(8)
    store = DistributedStore(topology, replication=2)
    table = gaussian_mixture_table(
        100_000, dims=("x0", "x1"), seed=1, name="sensors"
    )
    store.put_table(table, partitions_per_node=2)
    print(f"stored {table.n_rows} rows over {len(topology)} nodes "
          f"({store.table('sensors').n_bytes} bytes)")

    # 2. The SEA agent intercepts queries in front of the exact engine.
    agent = SEAAgent(
        ExactEngine(store),
        AgentConfig(training_budget=400, error_threshold=0.15),
    )

    # 3. An analyst population with overlapping interests (P2's premise).
    profile = InterestProfile.from_table(
        table, ("x0", "x1"), n_hotspots=4, seed=2,
        hotspot_scale=2.5, extent_range=(3.0, 8.0),
    )
    workload = WorkloadGenerator(
        "sensors", ("x0", "x1"), profile, aggregate=Count(), seed=3
    )

    # 4. Replay 1200 analytical queries through the agent.
    #    The agent keeps counters, not records: keep what submit returns.
    errors, records = [], []
    for query in workload.batch(1200):
        record = agent.submit(query)
        records.append(record)
        if record.mode == "predicted":
            truth = query.evaluate(table)
            errors.append(abs(record.answer - truth) / max(truth, 1.0))

    # 5. What happened?
    stats = agent.stats()
    print(f"\nqueries:            {stats['queries']:.0f}")
    print(f"  training phase:   {stats['trained']:.0f}")
    print(f"  served data-less: {stats['predicted']:.0f} "
          f"({stats['dataless_fraction']:.0%} of all)")
    print(f"  exact fallbacks:  {stats['fallback']:.0f}")
    print(f"learned state:      {stats['state_bytes']:.0f} bytes "
          f"(vs {store.table('sensors').n_bytes} bytes of base data)")
    if errors:
        print(f"\ndata-less answers' relative error: "
              f"median {np.median(errors):.1%}, p90 {np.quantile(errors, 0.9):.1%}")

    exact_cost = np.mean(
        [r.cost.elapsed_sec for r in records if r.mode != "predicted"]
    )
    dataless_cost = np.mean(
        [r.cost.elapsed_sec for r in records if r.mode == "predicted"]
    )
    print(f"\nper-query simulated latency: exact {exact_cost * 1e3:.1f} ms, "
          f"data-less {dataless_cost * 1e3:.2f} ms "
          f"({exact_cost / dataless_cost:.0f}x)")
    nodes = {
        r.cost.nodes_touched for r in records if r.mode == "predicted"
    }
    print(f"data nodes touched by data-less answers: {sorted(nodes)}")


if __name__ == "__main__":
    main()
