"""A served request leaves nothing behind (DESIGN §1, "What an agent keeps").

Four guarantees of an agent whose state is models, bounded buffers and
counters:

* **Flat retention** — serving ten times as many requests grows neither
  the live-object count nor the traced heap by more than a small
  constant, through every front door, learning on or off, observer
  attached or not.
* **Counters are the records** — ``stats()`` / ``health()`` equal what
  a caller computes from the records the calls returned.
* **The serving order travels on the answer** — ``served_seq`` is
  0, 1, 2, ... per agent across inline, coalesced and batched dispatch.
* **No second path** — ``agent.history`` and ``handle.served_queries``
  are gone, not emptied.
"""

import asyncio
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import SEAAgent
from repro.obs import SLOMonitor, StackObserver
from repro.queries.sql import parse_query
from repro.serve import GatewayConfig, ServingGateway
from tests.test_gateway import (
    FakeBatcher,
    agent_config,
    as_sql,
    assert_records_identical,
    make_session,
    make_workload,
    serving_order,
)

#: Requests before the first mark; ten times as many before the second.
N = 200
#: What 10 N more requests may add.  A request kept costs at least its
#: record, query and cost report (> 5 objects, > 500 bytes), i.e. 10 000
#: objects and 1 MB here; what does grow is learning (a model or a
#: quantum now and then) and a few interned floats — measured 58
#: objects / 18 KB with learning on, 0 / 0.2 KB off, ~30 KB with an
#: observer's metric rings filling.
MAX_OBJECTS = 500
MAX_BYTES = 128 * 1024


def statements(n=32):
    return [as_sql(q) for q in make_workload().batch(n)]


def growth(serve, settle=lambda: None):
    """``(objects, bytes)`` gained between serving N and 11 N requests."""
    tracemalloc.start()
    try:
        marks = []
        for n in (N, 10 * N):
            serve(n)
            settle()
            gc.collect()
            marks.append(
                (len(gc.get_objects()), tracemalloc.get_traced_memory()[0])
            )
    finally:
        tracemalloc.stop()
    (objects_1, bytes_1), (objects_2, bytes_2) = marks
    return objects_2 - objects_1, bytes_2 - bytes_1


def assert_flat(serve, settle=lambda: None):
    objects, nbytes = growth(serve, settle)
    assert objects < MAX_OBJECTS, (objects, nbytes)
    assert nbytes < MAX_BYTES, (objects, nbytes)


def flat_session(learning, observed):
    """A session over repeating statements, and what to drain at a mark."""
    session = make_session(
        config=agent_config(keep_learning_on_fallback=learning)
    )
    settle = lambda: None  # noqa: E731
    if observed:
        observer = session.attach_observer(
            StackObserver(event_capacity=64, profile_capacity=16)
        )
        # The event log and flight recorder are rings; the span list is
        # the export buffer its owner drains (export_trace), not state
        # the agent keeps — drain it the same way here.
        settle = observer.trace.spans.clear
    return session, settle


# ---------------------------------------------------------------------------
# (a) Retention is flat
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
@pytest.mark.parametrize("learning", [True, False], ids=["learning", "frozen"])
class TestRetentionIsFlat:
    def test_session_sql(self, learning, observed):
        session, settle = flat_session(learning, observed)
        texts = statements()

        def serve(n):
            for i in range(n):
                session.sql(texts[i % len(texts)])

        assert_flat(serve, settle)
        assert session.stats()["queries"] == 11 * N
        session.close()

    def test_agent_submit_batch(self, learning, observed):
        session, settle = flat_session(learning, observed)
        texts = statements()
        agent = session.agent

        def serve(n):
            for start in range(0, n, 20):
                agent.submit_batch(
                    [
                        parse_query(texts[i % len(texts)])
                        for i in range(start, start + 20)
                    ]
                )

        assert_flat(serve, settle)
        assert agent.stats()["queries"] == 11 * N
        session.close()

    def test_gateway_tenant(self, learning, observed, event_loop):
        session, settle = flat_session(learning, observed)
        texts = statements()
        gateway = ServingGateway(
            session,
            GatewayConfig(),
            agent_config=agent_config(keep_learning_on_fallback=learning),
            own_session=False,
        )

        def serve(n):
            async def run():
                for i in range(0, n, 4):
                    # One inline request, then three that coalesce.
                    await gateway.submit(texts[i % len(texts)], tenant="alice")
                    await gateway.submit_many(
                        [texts[(i + j) % len(texts)] for j in (1, 2, 3)],
                        tenant="alice",
                    )

            event_loop.run_until_complete(
                asyncio.wait_for(run(), timeout=120.0)
            )

        event_loop.run_until_complete(gateway.start())
        assert_flat(serve, settle)
        assert gateway.tenant("alice").agent.stats()["queries"] == 11 * N
        event_loop.run_until_complete(gateway.close())
        session.close()


def test_the_yardstick_sees_a_kept_record():
    # The same measurement over a caller that keeps what it is handed
    # (what ``history`` did): far over both bounds, so passing above
    # means nothing is kept, not that nothing is measured.
    session, _ = flat_session(learning=False, observed=False)
    texts = statements()
    kept = []

    def serve(n):
        for i in range(n):
            kept.append(session.agent.submit(parse_query(texts[i % len(texts)])))

    objects, nbytes = growth(serve)
    assert objects > 10 * MAX_OBJECTS
    assert nbytes > 5 * MAX_BYTES
    session.close()


# ---------------------------------------------------------------------------
# (b) stats() / health() are what the returned records say
# ---------------------------------------------------------------------------
def reference_stats(records):
    """What the deleted history walk computed, from the caller's records."""
    predicted = [r for r in records if r.mode == "predicted"]
    exact = [r.cost.elapsed_sec for r in records if r.mode != "predicted"]
    mean_exact = float(np.mean(exact)) if exact else 0.0
    total = len(records)
    return {
        "queries": float(total),
        "predicted": float(len(predicted)),
        "fallback": float(sum(1 for r in records if r.mode == "fallback")),
        "trained": float(sum(1 for r in records if r.mode == "train")),
        "dataless_fraction": len(predicted) / total if total else 0.0,
        "estimated_seconds_saved": float(
            max(0.0, sum(mean_exact - r.cost.elapsed_sec for r in predicted))
        ),
        "bytes_scanned_total": float(
            sum(r.cost.bytes_scanned for r in records)
        ),
    }


def assert_stats_match(session, records):
    stats = session.stats()
    expected = reference_stats(records)
    # One multiplication of a running mean against a sum of differences:
    # the same real number, rounded in a different order.
    assert stats.pop("estimated_seconds_saved") == pytest.approx(
        expected.pop("estimated_seconds_saved"), rel=1e-9, abs=1e-12
    )
    for key, value in expected.items():
        assert stats[key] == value, key  # bitwise, bytes_scanned_total too
    assert stats["state_bytes"] == float(session.agent.state_bytes())


class TestCountersAreTheRecords:
    def test_empty_agent(self):
        session = make_session()
        assert_stats_match(session, [])
        session.close()

    @pytest.mark.parametrize("batched", [False, True], ids=["submit", "batch"])
    def test_train_predicted_fallback_and_cache_hits(self, batched):
        session = make_session(config=agent_config(training_budget=40))
        workload = make_workload()
        agent = session.agent

        def serve(queries):
            if not batched:
                return [agent.submit(q) for q in queries]
            records = []
            for start in range(0, len(queries), 16):
                records += agent.submit_batch(queries[start : start + 16])
            return records

        # Novel queries while learning, then (frozen, so cached answers
        # stay current) one set twice over: the second pass hits.
        queries = workload.batch(160)
        records = serve(queries)
        assert_stats_match(session, records)  # running, not settled at the end
        agent.config.keep_learning_on_fallback = False
        repeats = [parse_query(as_sql(q)) for q in queries[100:] * 2]
        records += serve(repeats)
        modes = {r.mode for r in records}
        assert modes == {"train", "predicted", "fallback"}
        assert session.stats()["answer_cache_hits"] > 0
        assert_stats_match(session, records)
        session.close()

    def test_health_equals_a_monitor_fed_the_returned_answers(self):
        session = make_session()
        session.attach_slo()
        workload = make_workload()
        answers = [session.submit(q) for q in workload.batch(30)]
        answers += session.submit_batch(workload.batch(30))
        fresh = SLOMonitor()
        for answer in answers:
            fresh.record(answer)
        expected = fresh.health()
        expected["anomaly"] = session.agent.anomaly.summary()
        assert session.health() == expected
        assert expected["queries_recorded"] == 60
        session.close()


# ---------------------------------------------------------------------------
# (c) served_seq is the serving order
# ---------------------------------------------------------------------------
class TestServedSeq:
    def test_agent_numbers_submit_and_submit_batch_alike(self):
        session = make_session()
        agent = SEAAgent(session.engine, agent_config())
        workload = make_workload()
        records = [agent.submit(q) for q in workload.batch(5)]
        records += agent.submit_batch(workload.batch(12))
        records += [agent.submit(workload.next_query())]
        records += agent.submit_batch(workload.batch(1))
        assert [r.served_seq for r in records] == list(range(19))
        session.close()

    def test_gateway_numbers_each_tenant_across_dispatch_kinds(
        self, event_loop
    ):
        session = make_session()
        workload = make_workload()
        gateway = ServingGateway(
            session, GatewayConfig(), agent_config=agent_config(),
            own_session=False,
        )

        async def run():
            answers = {"alice": [], "bob": []}
            async with gateway:
                # Inline: sequential awaits, the two tenants interleaved.
                for query in workload.batch(12):
                    for tenant in answers:
                        answers[tenant].append(
                            await gateway.submit(query, tenant=tenant)
                        )
                inline = gateway.stats()["inline_total"]
                # Coalesced: both tenants' bursts in flight at once.
                bursts = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            gateway.submit_many(
                                workload.batch(24), tenant=tenant, timeout=30.0
                            )
                            for tenant in answers
                        )
                    ),
                    timeout=60.0,
                )
                for tenant, burst in zip(answers, bursts):
                    answers[tenant] += burst
                # A pinned window: every request queues and is batched.
                gateway.batcher = FakeBatcher(window=0.005, target=4)
                for tenant in answers:
                    answers[tenant] += await asyncio.wait_for(
                        gateway.submit_many(
                            workload.batch(8), tenant=tenant, timeout=30.0
                        ),
                        timeout=60.0,
                    )
            return answers, inline, gateway.stats()

        answers, inline, stats = event_loop.run_until_complete(run())
        assert inline > 12  # the odd one queues while the window settles
        assert stats["coalesced_total"] > 0
        for tenant, got in answers.items():
            assert len(got) == 12 + 24 + 8
            # Sequential awaits are served in submission order...
            assert [a.served_seq for a in got[:12]] == list(range(12))
            # ...and whatever order the rest was served in, it is
            # gapless, per tenant, and replays byte for byte.
            served = serving_order(got)
            assert any(a.batch_size > 1 for a in served)
            reference = SEAAgent(session.engine, agent_config())
            assert_records_identical(
                served, [reference.submit(a.query) for a in served]
            )
        session.close()


# ---------------------------------------------------------------------------
# (d) Deleted, not emptied
# ---------------------------------------------------------------------------
def test_history_and_served_queries_are_gone(event_loop):
    session = make_session()
    session.sql(statements(1)[0])
    with pytest.raises(AttributeError):
        session.agent.history
    gateway = ServingGateway(session, GatewayConfig(), own_session=False)
    handle = gateway.tenant("alice")
    with pytest.raises(AttributeError):
        handle.served_queries
    with pytest.raises(AttributeError):
        handle.agent.history
    session.close()
