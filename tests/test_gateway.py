"""The async serving gateway: admission, batching control, fairness,
lifecycle, and the byte-identity contract (DESIGN §14).

Async tests drive a fresh ``event_loop`` fixture explicitly (no
pytest-asyncio).  Where the adaptive batcher's online estimates would
make scheduling nondeterministic, tests swap in a ``FakeBatcher`` with a
pinned window/target so queueing vs pass-through is forced, not raced.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core import AgentConfig, SEAAgent
from repro.data import gaussian_mixture_table, InterestProfile, WorkloadGenerator
from repro.queries import Count
from repro.queries import sql as sql_module
from repro.serve import (
    AdaptiveBatcher,
    AdmissionQueue,
    AdmissionRejectedError,
    DeficitRoundRobin,
    GatewayClosedError,
    GatewayConfig,
    GatewayFailedError,
    Request,
    ServingGateway,
)
from repro.serve.batcher import BARREN_LIMIT, PROBE_EVERY
from repro.session import SEASession


def make_session(n_rows=3000, seed=7, config=None):
    session = SEASession(n_nodes=4, config=config)
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="data"
    )
    session.load_table(table)
    return session


def make_workload(n_rows=3000, seed=7):
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="data"
    )
    profile = InterestProfile.from_table(
        table, ("x0", "x1"), 3, seed=11, hotspot_scale=2.5,
        extent_range=(3.0, 8.0),
    )
    return WorkloadGenerator(
        "data", ("x0", "x1"), profile, aggregate=Count(), seed=13
    )


def agent_config(**overrides):
    defaults = dict(training_budget=8, error_threshold=0.3)
    defaults.update(overrides)
    return AgentConfig(**defaults)


class FakeBatcher:
    """Deterministic stand-in: a pinned window and target batch."""

    def __init__(self, window=0.0, target=1, service_seconds=0.0):
        self._window = window
        self._target = target
        self.service_seconds = service_seconds
        self.n_arrivals = 0
        self.n_batches = 0

    def note_arrival(self, now):
        self.n_arrivals += 1

    def note_batch(self, size, host):
        self.n_batches += 1

    def note_window(self, gained):
        pass

    def window(self):
        return self._window

    def target_batch(self):
        return self._target

    def snapshot(self):
        return {"window": self._window, "target_batch": self._target}


def assert_records_identical(answers, reference_records):
    """Gateway answers == a sequential replay's records, byte for byte."""
    assert len(answers) == len(reference_records)
    for answer, record in zip(answers, reference_records):
        assert answer.mode == record.mode
        assert np.array_equal(
            np.asarray(answer.value), np.asarray(record.answer)
        )
        assert answer.cost.__dict__ == record.cost.__dict__


def serving_order(answers):
    """One tenant's answers in the order its agent served them.

    The gateway keeps no log of what it served; ``served_seq`` on each
    answer is the order, gapless from 0 for an agent only it drives.
    """
    ordered = sorted(answers, key=lambda a: a.served_seq)
    assert [a.served_seq for a in ordered] == list(range(len(ordered)))
    return ordered


# ---------------------------------------------------------------------------
# Admission queue (pure unit tests on a fake clock)
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def _request(self, tenant="a", arrival=0.0, deadline=10.0):
        return Request(
            tenant=tenant, query=object(), arrival=arrival, deadline=deadline
        )

    def test_tenant_quota_rejects_before_capacity(self):
        queue = AdmissionQueue(capacity=8, tenant_quota=1)
        queue.offer(self._request("greedy"), now=0.0)
        with pytest.raises(AdmissionRejectedError) as exc:
            queue.offer(self._request("greedy"), now=0.0)
        assert exc.value.reason == "tenant_quota"
        # The shared queue still has room for everyone else.
        queue.offer(self._request("other"), now=0.0)
        assert len(queue) == 2

    def test_queue_full_is_typed_and_never_sheds_internally(self):
        queue = AdmissionQueue(capacity=2, starvation_guard=0.25)
        expired = self._request("a", arrival=0.0, deadline=1.0)
        queue.offer(expired, now=0.0)
        queue.offer(self._request("b"), now=0.0)
        # At capacity with an already-expired entry: offer must refuse
        # rather than shed it — the expired request carries a future only
        # the gateway can fail (the gateway runs _shed before offering).
        with pytest.raises(AdmissionRejectedError) as exc:
            queue.offer(self._request("c"), now=5.0)
        assert exc.value.reason == "queue_full"
        assert not expired.dead
        assert len(queue) == 2

    def test_shed_expired_returns_them_for_the_caller_to_fail(self):
        queue = AdmissionQueue(capacity=8)
        dead = self._request("a", arrival=0.0, deadline=1.0)
        live = self._request("a", arrival=0.0, deadline=100.0)
        queue.offer(dead, now=0.0)
        queue.offer(live, now=0.0)
        shed = queue.shed_expired(now=2.0)
        assert shed == [dead]
        assert dead.dead and not live.dead
        assert len(queue) == 1
        assert queue.shed_total == 1

    def test_take_orders_by_effective_deadline(self):
        # The starvation guard caps the scheduling key: an early patient
        # arrival (far deadline) outranks a later urgent one.
        queue = AdmissionQueue(capacity=8, starvation_guard=0.25)
        patient = self._request("a", arrival=0.0, deadline=100.0)
        urgent = self._request("a", arrival=1.0, deadline=1.5)
        queue.offer(urgent, now=1.0)
        queue.offer(patient, now=1.0)
        taken = queue.take("a", limit=2, now=1.0)
        assert taken == [patient, urgent]

    def test_take_sheds_expired_instead_of_dispatching(self):
        loop = asyncio.new_event_loop()
        try:
            queue = AdmissionQueue(capacity=8)
            expired = self._request("a", arrival=0.0, deadline=1.0)
            expired.future = loop.create_future()
            live = self._request("a", arrival=0.0, deadline=100.0)
            queue.offer(expired, now=0.0)
            queue.offer(live, now=0.0)
            taken = queue.take("a", limit=2, now=2.0)
            assert taken == [live]
            assert expired.future.done()
            with pytest.raises(AdmissionRejectedError) as exc:
                expired.future.result()
            assert exc.value.reason == "deadline"
        finally:
            loop.close()

    def test_take_sheds_infeasible_requests_early(self):
        # A live request whose deadline precedes even its own projected
        # completion is a doomed late answer: take() converts it into a
        # fast typed rejection instead of wasting a batch slot on it.
        loop = asyncio.new_event_loop()
        try:
            queue = AdmissionQueue(capacity=8)
            doomed = self._request("a", arrival=0.0, deadline=0.02)
            doomed.future = loop.create_future()
            roomy = self._request("a", arrival=0.0, deadline=100.0)
            queue.offer(doomed, now=0.0)
            queue.offer(roomy, now=0.0)
            taken = queue.take("a", limit=4, now=0.0, service=0.05)
            assert taken == [roomy]
            assert queue.shed_total == 1
            with pytest.raises(AdmissionRejectedError) as exc:
                doomed.future.result()
            assert exc.value.reason == "deadline"
            assert "projected" in exc.value.detail
        finally:
            loop.close()

    def test_take_drops_tightest_members_until_the_batch_is_feasible(self):
        # Batch members all finish together at ~now + n*service.  A
        # tight-deadline head must not be served late *and* must not cap
        # the batch for the roomy requests behind it: Moore–Hodgson with
        # uniform service drops the tightest member until the projected
        # completion fits every survivor.
        loop = asyncio.new_event_loop()
        try:
            queue = AdmissionQueue(capacity=8, starvation_guard=100.0)
            tight = self._request("a", arrival=0.0, deadline=0.12)
            tight.future = loop.create_future()
            roomy = [
                self._request("a", arrival=0.0, deadline=100.0 + i)
                for i in range(3)
            ]
            queue.offer(tight, now=0.0)
            for request in roomy:
                queue.offer(request, now=0.0)
            # service=0.1: all four would finish at 0.4 > tight's 0.12;
            # dropping tight leaves three finishing at 0.3 <= 100.
            taken = queue.take("a", limit=4, now=0.0, service=0.1)
            assert taken == roomy
            assert queue.shed_total == 1
            assert queue.pending("a") == 0
            with pytest.raises(AdmissionRejectedError) as exc:
                tight.future.result()
            assert exc.value.reason == "deadline"
            assert "projected" in exc.value.detail
        finally:
            loop.close()


# ---------------------------------------------------------------------------
# Adaptive batcher (pure unit tests on synthetic timestamps)
# ---------------------------------------------------------------------------
class TestAdaptiveBatcher:
    def test_low_load_collapses_to_passthrough(self):
        batcher = AdaptiveBatcher(max_window=0.02, passthrough_rho=0.75)
        for i in range(16):
            batcher.note_arrival(i * 0.01)  # 100/s
            batcher.note_batch(1, 1e-4)  # 100us each -> rho = 0.01
        assert batcher.target_batch() == 1
        assert batcher.window() == 0.0

    def test_overload_grows_batch_and_window(self):
        batcher = AdaptiveBatcher(
            max_window=0.02, passthrough_rho=0.75, headroom=2.0
        )
        for i in range(32):
            batcher.note_arrival(i * 1e-4)  # 10k/s
            batcher.note_batch(1, 1e-3)  # 1ms each -> rho = 10
        assert batcher.rho > 1.0
        assert batcher.target_batch() >= 2
        assert 0.0 < batcher.window() <= 0.02

    def test_clustered_wakeups_do_not_explode_the_rate(self):
        # Event-loop stalls deliver pending arrivals bunched with
        # microsecond gaps.  The span-based estimator must read the true
        # ~40/s, not the millions/s a gap-based estimate would see.
        batcher = AdaptiveBatcher(history=32)
        for burst in range(4):
            base = burst * 0.25
            for i in range(8):
                batcher.note_arrival(base + i * 1e-6)
        snapshot = batcher.snapshot()
        assert 10.0 < snapshot["arrival_rate"] < 100.0

    def test_median_service_shrugs_off_fallback_spikes(self):
        batcher = AdaptiveBatcher(history=32)
        for _ in range(31):
            batcher.note_batch(1, 1e-4)
        batcher.note_batch(1, 5e-2)  # one 50ms exact-fallback spike
        assert batcher.snapshot()["service_seconds"] == pytest.approx(1e-4)

    def test_idle_gap_resets_the_rate_window(self):
        batcher = AdaptiveBatcher(history=32, max_gap=1.0)
        for i in range(16):
            batcher.note_arrival(i * 1e-3)  # an old 1k/s burst
        # 5s of silence, then a new 1k/s burst: the rate must reflect
        # the new episode, not be diluted by the idle span.
        for i in range(8):
            batcher.note_arrival(5.0 + i * 1e-3)
        assert batcher.snapshot()["arrival_rate"] == pytest.approx(
            1000.0, rel=0.05
        )

    def _overloaded(self):
        batcher = AdaptiveBatcher(max_window=0.02, passthrough_rho=0.75)
        for i in range(32):
            batcher.note_arrival(i * 1e-4)  # 10k/s
            batcher.note_batch(1, 1e-3)  # 1ms each -> rho = 10
        return batcher

    def test_barren_windows_shut_the_gate_whatever_rho_says(self):
        batcher = self._overloaded()
        target = batcher.target_batch()
        for _ in range(BARREN_LIMIT - 1):
            batcher.note_window(0)
        assert batcher.window() > 0.0  # not yet: a short lull is not a verdict
        batcher.note_window(0)
        assert batcher.rho > 1.0
        assert batcher.window() == 0.0
        # rate x service still sizes the batch; it just opens no window.
        assert batcher.target_batch() == target

    def test_shut_gate_probes_one_request_in_fifty(self):
        batcher = self._overloaded()
        for _ in range(BARREN_LIMIT):
            batcher.note_window(0)
        now = 32 * 1e-4
        for cycle in range(3):
            for i in range(PROBE_EVERY):
                assert batcher.window() == 0.0
                now += 1e-4
                batcher.note_arrival(now)
            assert batcher.window() > 0.0  # the probe
            batcher.note_window(0)  # ...gained nobody: shut again

    def test_one_window_with_company_reopens_the_gate(self):
        batcher = self._overloaded()
        for _ in range(BARREN_LIMIT + 4):
            batcher.note_window(0)
        assert batcher.window() == 0.0
        batcher.note_window(3)
        assert batcher.window() > 0.0
        assert batcher.snapshot()["barren_windows"] == 0


# ---------------------------------------------------------------------------
# Deficit round-robin (pure unit tests)
# ---------------------------------------------------------------------------
class TestDeficitRoundRobin:
    def test_visits_alternate_between_backlogged_tenants(self):
        drr = DeficitRoundRobin(quantum=4)
        drr.observe("a")
        drr.observe("b")
        pending = {"a": 100, "b": 100}
        order = []
        for _ in range(4):
            tenant, budget = drr.select(pending)
            assert budget == 4
            drr.charge(tenant, budget)
            order.append(tenant)
        assert sorted(order[:2]) == ["a", "b"]
        assert order[:2] != order[2:4][::-1] or order[0] != order[1]
        assert order.count("a") == 2 and order.count("b") == 2

    def test_budget_capped_by_backlog_and_deficit(self):
        drr = DeficitRoundRobin(quantum=8)
        drr.observe("a")
        tenant, budget = drr.select({"a": 3})
        assert (tenant, budget) == ("a", 3)
        drr.charge("a", 3)
        assert drr.deficits()["a"] == 5.0  # unused credit carries over

    def test_drained_tenant_loses_carryover(self):
        drr = DeficitRoundRobin(quantum=8)
        drr.observe("a")
        drr.observe("b")
        drr.select({"a": 2, "b": 2})
        # Next pass sees "a" empty: classic DRR zeroes its deficit.
        for _ in range(2):
            drr.select({"a": 0, "b": 2})
        assert drr.deficits()["a"] == 0.0

    def test_flood_gets_share_of_visits_not_of_arrivals(self):
        drr = DeficitRoundRobin(quantum=4)
        drr.observe("flood")
        drr.observe("quiet")
        served = {"flood": 0, "quiet": 0}
        pending = {"flood": 1000, "quiet": 8}
        while pending["quiet"] > 0:
            tenant, budget = drr.select(pending)
            took = min(budget, pending[tenant])
            pending[tenant] -= took
            drr.charge(tenant, took)
            served[tenant] += took
        # By the time the quiet tenant drains, the flood got no more
        # than its alternating-visit share (+1 quantum of slack).
        assert served["flood"] <= served["quiet"] + drr.quantum


# ---------------------------------------------------------------------------
# The gateway itself (driven on the explicit event_loop fixture)
# ---------------------------------------------------------------------------
class TestServingGateway:
    def _gateway(self, session, **config_overrides):
        config = GatewayConfig(**config_overrides)
        return ServingGateway(
            session, config, agent_config=agent_config(), own_session=False
        )

    def test_passthrough_answers_are_byte_identical_to_replay(
        self, event_loop
    ):
        session = make_session()
        workload = make_workload()
        queries = workload.batch(40)
        gateway = self._gateway(session)
        # Closed-loop back-to-back awaits measure rho ~= 1 by
        # construction (arrival rate == 1/service), so the adaptive
        # batcher may legitimately engage; pin it to the pass-through
        # regime to assert the inline path specifically.
        gateway.batcher = FakeBatcher(window=0.0, target=1)

        async def run():
            async with gateway:
                return [
                    await gateway.submit(q, tenant="alice") for q in queries
                ]

        answers = event_loop.run_until_complete(run())
        stats = gateway.stats()
        assert stats["served_total"] == 40
        assert stats["inline_total"] == 40  # sequential awaits never queue
        # Sequential awaits: the serving order is the submission order.
        assert [a.served_seq for a in answers] == list(range(40))
        reference = SEAAgent(session.engine, agent_config())
        records = [reference.submit(a.query) for a in answers]
        assert_records_identical(answers, records)
        session.close()

    def test_coalesced_batches_stay_byte_identical(self, event_loop):
        session = make_session()
        workload = make_workload()
        queries = workload.batch(32)
        gateway = self._gateway(session, max_batch=8)
        # Pin the batcher into the batching regime: every request
        # queues, the loop coalesces up to 8 per dispatch.
        gateway.batcher = FakeBatcher(window=0.002, target=8)

        answers = event_loop.run_until_complete(
            gateway.submit_many(queries, tenant="alice", timeout=30.0)
        )
        event_loop.run_until_complete(gateway.close())
        stats = gateway.stats()
        assert stats["served_total"] == 32
        assert stats["coalesced_total"] > 0
        assert stats["batches_total"] < 32
        # submit_many returns answers in input order; replay in the
        # gateway's actual serving order.
        served = serving_order(answers)
        reference = SEAAgent(session.engine, agent_config())
        records = reference.submit_batch([a.query for a in served])
        assert_records_identical(served, records)
        session.close()

    def test_deadline_shed_while_queued_uses_injected_clock(
        self, event_loop
    ):
        session = make_session()
        workload = make_workload()
        clock = [100.0]
        gateway = ServingGateway(
            session,
            GatewayConfig(max_batch=8),
            agent_config=agent_config(),
            time_fn=lambda: clock[0],
            own_session=False,
        )
        gateway.batcher = FakeBatcher(window=0.01, target=100)

        async def run():
            await gateway.start()
            tasks = [
                asyncio.ensure_future(
                    gateway.submit(q, tenant="alice", timeout=0.5)
                )
                for q in workload.batch(3)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            clock[0] += 1.0  # every queued deadline is now past
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = event_loop.run_until_complete(run())
        event_loop.run_until_complete(gateway.close())
        assert len(results) == 3
        for result in results:
            assert isinstance(result, AdmissionRejectedError)
            assert result.reason == "deadline"
        assert gateway.counters.rejected["deadline"] == 3
        session.close()

    def test_dead_on_arrival_is_rejected_without_queueing(self, event_loop):
        session = make_session()
        workload = make_workload()
        clock = [50.0]
        gateway = ServingGateway(
            session,
            GatewayConfig(),
            agent_config=agent_config(),
            time_fn=lambda: clock[0],
            own_session=False,
        )

        async def run():
            async with gateway:
                with pytest.raises(AdmissionRejectedError) as exc:
                    await gateway.submit(
                        workload.next_query(), tenant="alice", deadline=49.0
                    )
                return exc.value

        error = event_loop.run_until_complete(run())
        assert error.reason == "deadline"
        assert len(gateway.queue) == 0
        session.close()

    def test_tenant_quota_and_queue_full_rejections(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session, queue_capacity=2, tenant_quota=1)
        gateway.batcher = FakeBatcher(window=0.05, target=100)

        async def run():
            await gateway.start()
            first = asyncio.ensure_future(
                gateway.submit(
                    workload.next_query(), tenant="greedy", timeout=30.0
                )
            )
            await asyncio.sleep(0)
            with pytest.raises(AdmissionRejectedError) as quota_exc:
                await gateway.submit(
                    workload.next_query(), tenant="greedy", timeout=30.0
                )
            second = asyncio.ensure_future(
                gateway.submit(
                    workload.next_query(), tenant="other", timeout=30.0
                )
            )
            await asyncio.sleep(0)
            with pytest.raises(AdmissionRejectedError) as full_exc:
                await gateway.submit(
                    workload.next_query(), tenant="third", timeout=30.0
                )
            answers = await asyncio.gather(first, second)
            return quota_exc.value, full_exc.value, answers

        quota_error, full_error, answers = event_loop.run_until_complete(run())
        event_loop.run_until_complete(gateway.close())
        assert quota_error.reason == "tenant_quota"
        assert quota_error.tenant == "greedy"
        assert full_error.reason == "queue_full"
        assert len(answers) == 2  # admitted requests still served
        session.close()

    def test_drain_close_serves_everything_queued(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session, max_batch=8)
        gateway.batcher = FakeBatcher(window=0.05, target=100)

        async def run():
            await gateway.start()
            tasks = [
                asyncio.ensure_future(
                    gateway.submit(q, tenant="alice", timeout=30.0)
                )
                for q in workload.batch(5)
            ]
            await asyncio.sleep(0)
            await gateway.close()  # drain=True: everything queued serves
            return await asyncio.gather(*tasks)

        answers = event_loop.run_until_complete(run())
        assert len(answers) == 5
        assert gateway.closed
        # Idempotent, and new submissions are refused with a typed error.
        event_loop.run_until_complete(gateway.close())
        with pytest.raises(GatewayClosedError):
            event_loop.run_until_complete(
                gateway.submit(workload.next_query(), tenant="alice")
            )
        session.close()

    def test_no_drain_close_fails_queued_requests(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session)
        gateway.batcher = FakeBatcher(window=0.05, target=100)

        async def run():
            await gateway.start()
            tasks = [
                asyncio.ensure_future(
                    gateway.submit(q, tenant="alice", timeout=30.0)
                )
                for q in workload.batch(4)
            ]
            await asyncio.sleep(0)
            await gateway.close(drain=False)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = event_loop.run_until_complete(run())
        assert all(isinstance(r, GatewayClosedError) for r in results)
        assert gateway.counters.rejected["closed"] >= 4
        session.close()

    def test_serving_fault_fails_the_batch_with_the_engine_error(
        self, event_loop
    ):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session, max_batch=4)
        gateway.batcher = FakeBatcher(window=0.002, target=4)
        handle = gateway.tenant("alice")
        original_serve = handle.serve
        boom = {"armed": True}

        def failing_serve(requests):
            if boom["armed"]:
                boom["armed"] = False
                raise RuntimeError("node exploded mid-batch")
            return original_serve(requests)

        handle.serve = failing_serve
        queries = workload.batch(4)

        async def run():
            async with gateway:
                first = await asyncio.gather(
                    *(
                        gateway.submit(q, tenant="alice", timeout=30.0)
                        for q in queries
                    ),
                    return_exceptions=True,
                )
                second = await asyncio.gather(
                    *(
                        gateway.submit(q, tenant="alice", timeout=30.0)
                        for q in queries
                    ),
                    return_exceptions=True,
                )
                return first, second

        first, second = event_loop.run_until_complete(run())
        # The failing batch surfaced the engine error to every waiter...
        assert any(isinstance(r, RuntimeError) for r in first)
        # ...and the gateway kept serving: the retry round all succeeded
        # and stayed byte-identical to a sequential replay.
        assert all(not isinstance(r, Exception) for r in second)
        # (The failed batch never reached the agent: no sequence number
        # was spent on it.)
        served = serving_order(
            [r for r in first + second if not isinstance(r, Exception)]
        )
        reference = SEAAgent(session.engine, agent_config())
        records = reference.submit_batch([a.query for a in served])
        assert_records_identical(served, records)
        session.close()

    def test_rebinding_to_a_different_loop_is_refused(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session)
        event_loop.run_until_complete(gateway.start())
        other = asyncio.new_event_loop()
        try:
            with pytest.raises(ConfigurationError):
                other.run_until_complete(
                    gateway.submit(workload.next_query(), tenant="alice")
                )
        finally:
            other.close()
        event_loop.run_until_complete(gateway.close())
        session.close()

    def test_tenants_are_isolated_handles_over_one_engine(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session)

        async def run():
            async with gateway:
                for query in workload.batch(6):
                    await gateway.submit(query, tenant="alice")
                    await gateway.submit(query, tenant="bob")

        event_loop.run_until_complete(run())
        alice, bob = gateway.tenant("alice"), gateway.tenant("bob")
        assert alice.agent is not bob.agent
        assert alice.agent.cache is not bob.agent.cache
        assert alice.agent.engine is bob.agent.engine
        # Freezing one tenant's config must not leak into the other.
        alice.config.keep_learning_on_fallback = False
        assert bob.config.keep_learning_on_fallback
        stats = gateway.stats()
        assert set(stats["tenants"]) == {"alice", "bob"}
        assert stats["tenants"]["alice"]["served"] == 6.0
        session.close()

    def test_stats_surface_counters_and_batcher_snapshot(self, event_loop):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session)

        async def run():
            async with gateway:
                await gateway.submit(workload.next_query(), tenant="alice")

        event_loop.run_until_complete(run())
        stats = gateway.stats()
        for key in (
            "served_total",
            "inline_total",
            "rejected",
            "queue_depth",
            "batcher",
            "drr_deficits",
        ):
            assert key in stats
        assert stats["batcher"]["n_arrivals"] == 1
        session.close()

    def test_dead_serve_loop_fails_its_callers_instead_of_hanging(
        self, event_loop
    ):
        session = make_session()
        workload = make_workload()
        gateway = self._gateway(session)

        class BrokenBatcher(FakeBatcher):
            def note_window(self, gained):
                raise RuntimeError("controller bug")

        gateway.batcher = BrokenBatcher(window=0.001, target=100)

        async def run():
            await gateway.start()
            queued = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        gateway.submit(q, tenant="alice", timeout=30.0)
                        for q in workload.batch(3)
                    ),
                    return_exceptions=True,
                ),
                timeout=10.0,
            )
            with pytest.raises(GatewayFailedError) as later:
                await asyncio.wait_for(
                    gateway.submit(workload.next_query(), tenant="bob"),
                    timeout=10.0,
                )
            await asyncio.wait_for(gateway.close(), timeout=10.0)
            return queued, later.value

        queued, later = event_loop.run_until_complete(run())
        assert len(queued) == 3
        for error in queued:
            assert isinstance(error, GatewayFailedError)
            assert isinstance(error, GatewayClosedError)  # same family
            assert isinstance(error.cause, RuntimeError)
            assert error.tenant == "alice"
        assert isinstance(later.cause, RuntimeError)
        assert later.tenant == "bob"
        assert gateway.closed
        assert gateway.counters.rejected["closed"] == 4
        session.close()


# ---------------------------------------------------------------------------
# The outcome-driven window: a real AdaptiveBatcher on an injected clock
# ---------------------------------------------------------------------------
def as_sql(query) -> str:
    sel = query.selection
    where = " AND ".join(
        f"{c} BETWEEN {float(lo)!r} AND {float(hi)!r}"
        for c, lo, hi in zip(sel.columns, sel.lows, sel.highs)
    )
    return f"SELECT COUNT(*) FROM {query.table_name} WHERE {where}"


class TestRepeatedStatements:
    """Statement templates are invisible in everything the gateway returns."""

    def _serve(self, event_loop, statements, before_each):
        session = make_session()
        gateway = ServingGateway(
            session, GatewayConfig(), agent_config=agent_config(), own_session=False
        )
        gateway.batcher = FakeBatcher(window=0.0, target=1)
        # The agent's own records (predictions included), kept here
        # because nothing in the gateway keeps them.
        handle = gateway.tenant("alice")
        serve, records = handle.serve, []

        def keeping_serve(requests):
            served = serve(requests)
            records.extend(served)
            return served

        handle.serve = keeping_serve

        async def run():
            answers = []
            async with gateway:
                for text in statements:
                    before_each()
                    answers.append(await gateway.submit(text, tenant="alice"))
            return answers

        answers = event_loop.run_until_complete(run())
        session.close()
        return answers, records

    def test_warm_and_cleared_memo_serve_identically(self, event_loop):
        distinct = [as_sql(q) for q in make_workload().batch(60)]
        rng = np.random.default_rng(5)
        # Every text is sent about four times, interleaved.
        statements = [distinct[i] for i in rng.integers(0, 60, size=240)]
        cold_answers, cold = self._serve(
            event_loop, statements, sql_module._template.cache_clear
        )
        for text in distinct:
            sql_module.parse_query(text)
        parses = sql_module._template.cache_info().misses
        warm_answers, warm = self._serve(event_loop, statements, lambda: None)
        assert sql_module._template.cache_info().misses == parses  # all repeats
        assert {r.mode for r in warm} == {"train", "predicted", "fallback"}
        assert len(warm) == len(cold) == 240
        for a, b in zip(warm_answers, cold_answers):
            assert (a.mode, a.batched) == (b.mode, b.batched)
            assert np.array_equal(np.asarray(a.value), np.asarray(b.value))
            assert a.cost.__dict__ == b.cost.__dict__
        for a, b in zip(warm, cold):
            assert a.mode == b.mode
            assert np.array_equal(np.asarray(a.answer), np.asarray(b.answer))
            assert a.cost.__dict__ == b.cost.__dict__
            assert (a.prediction is None) == (b.prediction is None)
            if a.prediction is not None:
                mine, theirs = vars(a.prediction).copy(), vars(b.prediction).copy()
                assert mine.pop("value").tobytes() == theirs.pop("value").tobytes()
                assert mine == theirs
        # Requests stayed distinct objects although their texts repeat.
        assert len({id(r.query) for r in warm}) == 240

    def test_identical_statements_in_one_batch_keep_separate_profiles(
        self, event_loop
    ):
        session = make_session()
        gateway = ServingGateway(
            session,
            GatewayConfig(max_batch=8),
            agent_config=agent_config(),
            own_session=False,
        )
        gateway.batcher = FakeBatcher(window=0.002, target=8)
        observer = gateway.attach_observer()
        warm = [as_sql(q) for q in make_workload().batch(40)]
        text = warm[-1]

        async def run():
            async with gateway:
                for statement in warm:
                    await gateway.submit(statement, tenant="alice", timeout=30.0)
                return await gateway.submit_many(
                    [text, text, warm[0], text], tenant="alice", timeout=30.0
                )

        answers = event_loop.run_until_complete(run())
        session.close()
        twins = [answers[0], answers[1], answers[3]]
        assert all(a.batched and a.batch_size == 4 for a in answers)
        assert len({id(a.query) for a in twins}) == 3
        assert twins[0].query.selection is twins[1].query.selection
        profiles = [a.profile for a in twins]
        assert all(p is not None for p in profiles)
        assert len({id(p) for p in profiles}) == 3
        assert len(observer.profiles) == 44  # one record per request
        assert [p.mode for p in profiles] == [a.mode for a in twins]


class TickClock:
    """Scheduling clock that advances one microsecond per reading.

    Arrivals land microseconds apart while service (``perf_counter``)
    stays real, so ``rate x service`` reads as heavy saturation however
    many callers there are — the regime where only a window's outcome
    can tell a lone back-to-back caller from a crowd.
    """

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        self.now += 1e-6
        return self.now


class TestOutcomeDrivenWindow:
    def _gateway(self, session, clock=None, **config_overrides):
        # A budget no test exhausts: every request is served by the
        # exact engine (mode "train"), the fallback's cost profile.
        return ServingGateway(
            session,
            GatewayConfig(**config_overrides),
            agent_config=agent_config(training_budget=100_000),
            time_fn=clock or TickClock(),
            own_session=False,
        )

    def _assert_replays(self, session, answers):
        served = serving_order(answers)
        reference = SEAAgent(
            session.engine, agent_config(training_budget=100_000)
        )
        records = reference.submit_batch([a.query for a in served])
        assert_records_identical(served, records)

    def test_lone_back_to_back_caller_is_served_inline(self, event_loop):
        session = make_session()
        queries = make_workload().batch(500)
        gateway = self._gateway(session)
        inline = []

        async def run():
            answers = []
            async with gateway:
                for query in queries:
                    before = gateway.counters.inline_total
                    answers.append(await gateway.submit(query, tenant="alice"))
                    inline.append(gateway.counters.inline_total > before)
            return answers

        answers = event_loop.run_until_complete(run())
        stats = gateway.stats()
        assert stats["served_total"] == 500
        assert all(a.mode == "train" for a in answers)
        # rate x service reads saturation throughout...
        assert stats["batcher"]["rho"] > 1.0
        assert stats["batcher"]["target_batch"] >= 2
        # ...yet once a few windows gained nobody the caller is inline.
        assert stats["batcher"]["barren_windows"] >= BARREN_LIMIT
        settled = inline[32:]
        assert sum(settled) / len(settled) >= 0.97
        # The only requests that queue are the probes, PROBE_EVERY apart;
        # everything between them waits for nothing at all.
        probes = [i for i, was_inline in enumerate(inline) if not was_inline]
        late = [i for i in probes if i >= 32]
        assert late, "the gate must keep probing for company"
        assert all(b - a > PROBE_EVERY for a, b in zip(probes, probes[1:]) if a >= 32)
        for i, answer in enumerate(answers):
            if inline[i]:
                assert answer.queued_sec == 0.0
            assert answer.batch_size == 1
        assert stats["coalesced_total"] == 0
        self._assert_replays(session, answers)
        session.close()

    def test_concurrent_callers_still_coalesce(self, event_loop):
        session = make_session()
        queries = make_workload().batch(8 * 16)
        gateway = self._gateway(session)

        async def caller(mine):
            return [
                await gateway.submit(q, tenant="alice", timeout=30.0)
                for q in mine
            ]

        async def run():
            async with gateway:
                chunks = await asyncio.gather(
                    *(caller(queries[i::8]) for i in range(8))
                )
            return [a for chunk in chunks for a in chunk]

        answers = event_loop.run_until_complete(run())
        stats = gateway.stats()
        assert stats["served_total"] == 128
        assert stats["served_total"] / stats["batches_total"] > 2.0
        assert stats["coalesced_total"] > 64
        # Company at every decision: the gate never shut.
        assert stats["batcher"]["barren_windows"] < BARREN_LIMIT
        self._assert_replays(session, answers)
        session.close()

    def test_window_ends_the_moment_the_target_batch_is_queued(
        self, event_loop
    ):
        session = make_session()
        queries = make_workload().batch(20)
        gateway = self._gateway(session, clock=lambda: 100.0, max_window=3.0)
        # A real controller with its estimates pinned (refresh never
        # fires): 1 arrival/s x 2 s of service -> rho 2, target batch 4,
        # and a 3-second window that a blind sleep would sit out.
        batcher = AdaptiveBatcher(max_window=3.0, history=64, refresh=10**9)
        for i in range(64):
            batcher.note_arrival(float(i))
            batcher.note_batch(1, 2.0)
        pinned = batcher.snapshot()
        assert pinned["target_batch"] == 4 and pinned["window"] == 3.0
        gateway.batcher = batcher
        rounds = 5

        async def run():
            answers = []
            async with gateway:
                started = event_loop.time()
                for r in range(rounds):
                    mine = queries[4 * r : 4 * r + 4]
                    first = asyncio.ensure_future(
                        gateway.submit(mine[0], tenant="alice", timeout=1e6)
                    )
                    await asyncio.sleep(0.005)  # the window is open, one queued
                    assert not first.done()
                    answers += await asyncio.gather(
                        first,
                        *(
                            gateway.submit(q, tenant="alice", timeout=1e6)
                            for q in mine[1:]
                        ),
                    )
                return answers, event_loop.time() - started

        answers, elapsed = event_loop.run_until_complete(run())
        assert [a.batch_size for a in answers] == [4] * (4 * rounds)
        # Five 3 s windows, none sat out: the whole run fits inside one.
        assert elapsed < 3.0
        self._assert_replays(session, answers)
        session.close()

    def test_lone_caller_joined_by_a_burst_is_batched_again(self, event_loop):
        session = make_session()
        workload = make_workload()
        alone = workload.batch(200)
        more = workload.batch(64)
        burst = workload.batch(8 * 8)
        gateway = self._gateway(session)

        async def caller(mine):
            return [
                await gateway.submit(q, tenant="alice", timeout=30.0)
                for q in mine
            ]

        async def run():
            answers = []
            async with gateway:
                answers += await caller(alone)
                assert gateway.counters.coalesced_total == 0
                assert gateway.batcher.window() == 0.0  # gate shut
                joiners = [
                    asyncio.ensure_future(caller(burst[i::8])) for i in range(8)
                ]
                until_batched = 0
                while gateway.counters.coalesced_total == 0:
                    assert until_batched < len(more), "burst never discovered"
                    answers.append(
                        await gateway.submit(
                            more[until_batched], tenant="alice", timeout=30.0
                        )
                    )
                    until_batched += 1
                for chunk in await asyncio.gather(*joiners):
                    answers += chunk
            return answers, until_batched

        answers, until_batched = event_loop.run_until_complete(run())
        assert until_batched <= 64
        stats = gateway.stats()
        assert stats["served_total"] == len(answers)
        assert stats["coalesced_total"] >= 32
        self._assert_replays(session, answers)
        session.close()
