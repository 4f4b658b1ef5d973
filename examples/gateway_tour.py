"""Serving-gateway tour: multi-tenant admission, batching, backpressure.

Walks DESIGN §14's front door end to end on a live session:

1. two tenants over one shared store: each gets its own agent (own
   predictors, own answer-cache partition) and their answer streams
   replay byte-identically on dedicated sequential agents;
2. pass-through at low load: an idle-loop arrival is served inline —
   no queue hop, no thread hop — so p50 is a direct agent call plus
   microseconds of bookkeeping;
3. a concurrent burst: the adaptive batcher sees utilisation cross the
   pass-through threshold and coalesces arrivals into single
   ``submit_batch`` dispatches;
4. typed backpressure: a tiny queue with per-tenant quotas and tight
   deadlines converts overload into ``AdmissionRejectedError``\\ s whose
   ``reason`` tells the client *what* to do about it;
5. the byte-identity check: every answer the gateway returned equals a
   fresh sequential agent replaying them in ``served_seq`` order.

Run:  python examples/gateway_tour.py
"""

import asyncio

import numpy as np

from repro import (
    AdmissionRejectedError,
    AgentConfig,
    Count,
    GatewayConfig,
    InterestProfile,
    SEASession,
    ServingGateway,
    gaussian_mixture_table,
)
from repro.core import SEAAgent
from repro.data import WorkloadGenerator


def build_world(n_rows=20_000, seed=1):
    session = SEASession(n_nodes=8)
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="sensors"
    )
    session.load_table(table)
    profile = InterestProfile.from_table(
        table, ("x0", "x1"), n_hotspots=4, seed=2
    )
    workload = WorkloadGenerator(
        "sensors", ("x0", "x1"), profile, aggregate=Count(), seed=3
    )
    return session, workload


async def tour():
    session, workload = build_world()
    config = AgentConfig(training_budget=60, error_threshold=0.25)

    print("=== 1. two tenants over one shared store ===")
    gateway = ServingGateway(
        session,
        GatewayConfig(queue_capacity=64, max_batch=16),
        agent_config=config,
    )
    async with gateway:
        # The gateway keeps no log of what it served: part 5 replays
        # from the answers kept here.
        alice_answers = []
        for query in workload.batch(120):
            alice_answers.append(await gateway.submit(query, tenant="alice"))
            await gateway.submit(query, tenant="bob")
        alice, bob = gateway.tenant("alice"), gateway.tenant("bob")
        print(f"  alice: {alice.served_total} served, "
              f"cache={len(alice.agent.cache)} entries")
        print(f"  bob:   {bob.served_total} served, own agent: "
              f"{alice.agent is not bob.agent}")

        print("\n=== 2. pass-through at low load ===")
        answer = await gateway.submit(
            workload.next_query(), tenant="alice", timeout=1.0
        )
        alice_answers.append(answer)
        stats = gateway.stats()
        print(f"  mode={answer.mode} batched={answer.batched} "
              f"(inline so far: {stats['inline_total']} of "
              f"{stats['served_total']})")

        print("\n=== 3. a concurrent burst coalesces ===")
        # The estimator's view of part 1's closed-loop traffic sits
        # right at the pass-through boundary (back-to-back awaits
        # measure rho ~= 1), so whether a one-shot burst coalesces
        # would depend on scheduler jitter.  Pin the controller into
        # the overload regime so the demo is deterministic.
        gateway.batcher.passthrough_rho = 0.0
        gateway.batcher.headroom = 16.0
        burst = workload.batch(48)
        answers = await gateway.submit_many(
            burst, tenant="alice", timeout=5.0
        )
        alice_answers.extend(answers)
        sizes = sorted({a.batch_size for a in answers})
        stats = gateway.stats()
        print(f"  48 concurrent requests -> {stats['batches_total']} "
              f"dispatches so far, batch sizes seen in burst: {sizes}")
        print(f"  batcher estimate: rho={stats['batcher']['rho']:.2f} "
              f"window={stats['batcher']['window'] * 1e3:.2f}ms")

        print("\n=== 4. typed backpressure under a tiny queue ===")
        rejected = {}
        tiny = ServingGateway(
            session,
            GatewayConfig(
                queue_capacity=4, tenant_quota=2, default_timeout=0.001
            ),
            agent_config=config,
            own_session=False,
        )
        async with tiny:
            results = await asyncio.gather(
                *(
                    tiny.submit(q, tenant=f"t{i % 4}")
                    for i, q in enumerate(workload.batch(32))
                ),
                return_exceptions=True,
            )
        for result in results:
            if isinstance(result, AdmissionRejectedError):
                rejected[result.reason] = rejected.get(result.reason, 0) + 1
        served = sum(1 for r in results if not isinstance(r, Exception))
        print(f"  32 rushed requests: {served} served, "
              f"rejected by reason: {rejected}")

        print("\n=== 5. byte-identity: replay alice sequentially ===")
        reference = SEAAgent(session.engine, AgentConfig(
            training_budget=60, error_threshold=0.25
        ))
        # submit_many returns input order; ``served_seq`` on each answer
        # is the order alice's agent actually served them in.
        served = sorted(alice_answers, key=lambda a: a.served_seq)
        assert [a.served_seq for a in served] == list(range(len(served)))
        mismatches = 0
        for answer in served:
            record = reference.submit(answer.query)
            if answer.mode != record.mode or not np.array_equal(
                np.asarray(answer.value), np.asarray(record.answer)
            ):
                mismatches += 1
        print(f"  replayed {len(served)} queries; mismatches: "
              f"{mismatches} (byte-identical: {mismatches == 0})")

    print("\ngateway closed; session closed:", session.closed)


if __name__ == "__main__":
    asyncio.run(tour())
