"""The query flight recorder, SLO monitor and anomaly detector (DESIGN §10).

Four families of guarantees:

* **EXPLAIN** — ``session.explain`` plans without executing: nothing is
  charged, no serving statistic moves, and the predicted serving path
  matches what ``submit`` then actually does.
* **EXPLAIN ANALYZE** — every answer served under an observer carries a
  :class:`QueryProfile` whose plan tree reconciles with the CostMeter
  charges, the pruning counters and the fault history, and whose JSON /
  rendered text are deterministic.
* **Health** — the SLO monitor's burn-rate statuses, monitoring
  from attachment onwards, and the accuracy-drift z-score detector.
* **Byte-identity** — a hypothesis property drives two identically
  seeded sessions (pruning on/off × faults on/off) and requires
  identical profile JSONL, event JSONL, metrics and spans.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AgentConfig,
    Count,
    InterestProfile,
    SEASession,
    WorkloadGenerator,
    gaussian_mixture_table,
)
from repro.common.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSchedule
from repro.obs import (
    AccuracyDriftMonitor,
    SLOMonitor,
    SLOPolicy,
    SLOTarget,
    StackObserver,
)
from repro.obs.profile import EXPLAIN, EXPLAIN_ANALYZE


def _make_session(**kwargs):
    defaults = dict(
        n_nodes=4,
        config=AgentConfig(training_budget=6, error_threshold=0.05, warmup=4),
    )
    defaults.update(kwargs)
    session = SEASession(**defaults)
    table = gaussian_mixture_table(4_000, dims=("x0", "x1"), seed=7, name="data")
    session.load_table(table)
    return session, table


def _workload(table, n=24, seed=13):
    profile = InterestProfile.from_table(table, ("x0", "x1"), 3, seed=11)
    gen = WorkloadGenerator(
        "data", ("x0", "x1"), profile, aggregate=Count(), seed=seed
    )
    return gen.batch(n)


# --------------------------------------------------------------------------
# EXPLAIN: plan without executing
# --------------------------------------------------------------------------
class TestExplain:
    STATEMENT = (
        "SELECT COUNT(*) FROM data WHERE x0 BETWEEN 10 AND 40 "
        "AND x1 BETWEEN 10 AND 40"
    )

    def test_explain_is_plan_only_and_non_mutating(self):
        session, table = _make_session()  # no observer: still works
        for query in _workload(table, n=3):
            session.submit(query)
        before_stats = session.stats()
        before_queries = session.agent.n_queries
        profile = session.explain(self.STATEMENT)
        assert profile.kind == EXPLAIN
        assert session.stats() == before_stats
        assert session.agent.n_queries == before_queries
        # Deterministic: planning twice yields byte-identical JSON.
        assert profile.to_json() == session.explain(self.STATEMENT).to_json()

    def test_explain_covers_every_partition_with_plan_actions(self):
        session, _ = _make_session()
        profile = session.explain(self.STATEMENT)
        stored = session.store.table("data")
        assert profile.pruning is True  # zone maps on by default
        assert profile.n_partitions == len(stored.partitions)
        assert {p.action for p in profile.partitions} <= {
            "scan",
            "skip",
            "synopsis",
        }
        assert profile.bytes_scanned + profile.bytes_saved <= sum(
            p.n_bytes for p in stored.partitions
        )
        text = profile.render()
        assert text.startswith("EXPLAIN Query(")
        assert "ANALYZE" not in text
        assert "plan: table=data" in text

    def test_explain_predicts_the_serving_path_submit_takes(self):
        session, table = _make_session()
        queries = _workload(table, n=10)
        for query in queries:  # past the training budget
            session.submit(query)
        for query in _workload(table, n=4, seed=29):
            expected = session.explain(query)
            served = session.submit(query)
            assert expected.mode == served.mode

    def test_explain_without_pruning_scans_everything(self):
        session, _ = _make_session()
        session.engine.pruning = False
        profile = session.explain(self.STATEMENT)
        assert profile.pruning is False
        assert profile.n_scanned == profile.n_partitions
        assert profile.bytes_saved == 0


# --------------------------------------------------------------------------
# EXPLAIN ANALYZE: plan + actuals on every served answer
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def analyzed_run():
    session, table = _make_session()
    observer = session.attach_observer()
    answers = [session.submit(q) for q in _workload(table)]
    answers += session.submit_batch(_workload(table, n=8, seed=17))
    return {"session": session, "observer": observer, "answers": answers}


class TestExplainAnalyze:
    def test_every_answer_carries_a_finished_profile(self, analyzed_run):
        for answer in analyzed_run["answers"]:
            profile = answer.profile
            assert profile.kind == EXPLAIN_ANALYZE
            assert profile.mode == answer.mode
            assert profile.answer == repr(answer.value)
            assert profile.error_threshold == 0.05

    def test_plan_tree_reconciles_with_cost_meter(self, analyzed_run):
        exact_modes = 0
        for answer in analyzed_run["answers"]:
            profile = answer.profile
            assert profile.cost["bytes_scanned"] == round(
                answer.cost.bytes_scanned, 9
            )
            if answer.mode in ("train", "fallback"):
                exact_modes += 1
                # Per-partition read_bytes sum to exactly what the meter
                # charged for this query's scan.
                assert (
                    sum(p.read_bytes for p in profile.partitions)
                    == profile.cost["bytes_scanned"]
                )
                assert profile.morsels == profile.n_scanned
            else:
                assert profile.partitions == []
                assert profile.cost["bytes_scanned"] == 0.0
        assert exact_modes  # the workload exercised the exact path

    def test_phase_times_are_simulated_and_exact_path_has_map(
        self, analyzed_run
    ):
        for answer in analyzed_run["answers"]:
            profile = answer.profile
            for seconds in profile.phases.values():
                assert seconds >= 0.0
            if answer.mode in ("train", "fallback"):
                assert "map" in profile.phases
                assert profile.phases["map"] > 0.0
                assert sum(profile.phases.values()) <= (
                    profile.cost["elapsed_sec"] + 1e-9
                )

    def test_pruning_totals_reconcile_with_metrics(self, analyzed_run):
        metrics = analyzed_run["observer"].metrics.as_dict()
        profiles = [a.profile for a in analyzed_run["answers"]]
        skipped = sum(p.n_skipped for p in profiles)
        covered = sum(p.n_covered for p in profiles)
        assert skipped == metrics.get("pruning_partitions_skipped_total", 0.0)
        assert covered == metrics.get(
            "pruning_partitions_synopsis_total", 0.0
        )

    def test_render_and_json_are_deterministic(self, analyzed_run):
        profile = next(
            a.profile
            for a in analyzed_run["answers"]
            if a.mode in ("train", "fallback")
        )
        assert profile.render() == profile.render()
        text = profile.render()
        assert text.startswith("EXPLAIN ANALYZE Query(")
        assert "plan: table=data" in text
        assert "phases:" in text
        assert "cost:" in text
        assert json.loads(profile.to_json()) == profile.as_dict()

    def test_render_truncates_long_plan_trees(self, analyzed_run):
        profile = next(
            a.profile
            for a in analyzed_run["answers"]
            if a.profile.partitions
        )
        text = profile.render(max_partitions=1)
        assert f"... ({profile.n_partitions - 1} more partitions)" in text

    def test_cache_hits_are_noted(self):
        session, table = _make_session(
            config=AgentConfig(training_budget=60, error_threshold=0.3, warmup=4)
        )
        session.attach_observer()
        profile = InterestProfile.from_table(
            table, ("x0", "x1"), 3, seed=11, hotspot_scale=2.5,
            extent_range=(3, 8),
        )
        gen = WorkloadGenerator(
            "data", ("x0", "x1"), profile, aggregate=Count(), seed=13
        )
        for query in gen.batch(150):
            session.submit(query)
        # Freeze learning: a fallback's learning step would invalidate
        # the signature's cache entries between the two waves.
        session.agent.config.keep_learning_on_fallback = False
        repeats = gen.batch(10)
        first = [session.submit(q).profile for q in repeats]
        second = [session.submit(q).profile for q in repeats]
        # A predicted serve fills the cache; re-submitting the identical
        # query then hits it, and the profile says so.
        assert any(p.mode == "predicted" for p in first)
        hits_noted = sum(1 for p in second if p.cache_hit is True)
        assert hits_noted == sum(1 for p in first if p.mode == "predicted")
        metrics = session.observer.metrics.as_dict()
        assert hits_noted == metrics.get("sea_answer_cache_hits_total", 0.0)

    def test_recorder_capacity_bounds_retention_not_answers(self):
        session, table = _make_session()
        observer = session.attach_observer(StackObserver(profile_capacity=2))
        answers = [session.submit(q) for q in _workload(table, n=5)]
        assert all(a.profile is not None for a in answers)  # still returned
        assert len(observer.profiles) == 2
        assert observer.profiles.n_dropped == 3
        assert observer.snapshot()["obs_profiles_dropped"] == 3

    def test_detached_answer_profile_raises_clearly(self):
        session, table = _make_session()  # no observer
        answer = session.submit(_workload(table, n=1)[0])
        with pytest.raises(ConfigurationError, match="no profile"):
            answer.profile


# --------------------------------------------------------------------------
# Fault history in profiles
# --------------------------------------------------------------------------
class TestFaultProfiles:
    def _faulty_session(self, replication, schedule_fn, seed=23):
        session, table = _make_session(replication=replication)
        session.engine.failure_mode = "degrade"
        nodes = list(session.topology.node_ids)
        session.store.attach_faults(
            FaultInjector(schedule_fn(nodes), seed=seed)
        )
        session.attach_observer()
        return session, table

    def test_fault_counters_reconcile_with_metrics(self):
        session, table = self._faulty_session(
            2,
            lambda nodes: FaultSchedule()
            .crash(nodes[1])
            .flaky(nodes[2], 0.4),
        )
        profiles = [
            session.submit(q).profile for q in _workload(table, n=12)
        ]
        metrics = session.observer.metrics.as_dict()

        def metric_total(prefix):
            return sum(
                v for k, v in metrics.items() if k.startswith(prefix)
            )

        assert sum(p.fault_retries for p in profiles) == metric_total(
            "fault_retries_total"
        )
        assert sum(p.fault_probes for p in profiles) == metric_total(
            "fault_probes_total"
        )
        assert sum(p.fault_failovers for p in profiles) == metric_total(
            "fault_failovers_total"
        )
        # The crashed primary forces real fault handling to profile.
        assert any(
            p.fault_probes or p.fault_failovers or p.fault_retries
            for p in profiles
        )

    def test_degraded_answers_profile_lost_partitions_and_bounds(self):
        session, table = self._faulty_session(
            1, lambda nodes: FaultSchedule().crash(nodes[1])
        )
        profiles = [
            session.submit(q).profile for q in _workload(table, n=8)
        ]
        degraded = [p for p in profiles if p.degraded is not None]
        assert degraded
        for profile in degraded:
            assert profile.n_lost >= 1
            assert profile.n_lost == len(profile.degraded["lost"])
            assert 0.0 <= profile.degraded["coverage"] < 1.0
            lost_rows = [p for p in profile.partitions if p.action == "lost"]
            assert all(p.read_bytes == 0 for p in lost_rows)
            text = profile.render()
            assert "degraded: coverage=" in text
            assert " lost=" in text  # the plan line counts lost partitions


# --------------------------------------------------------------------------
# SLO health and anomaly detection
# --------------------------------------------------------------------------
class TestSLOHealth:
    def test_tight_latency_target_breaches(self):
        session, table = _make_session()
        session.attach_slo(
            SLOPolicy(default=SLOTarget(latency_sec=1e-12, objective=0.95))
        )
        for query in _workload(table, n=6):
            session.submit(query)
        snapshot = session.health()
        assert snapshot["status"] == "breach"
        info = snapshot["classes"]["count"]
        assert info["violation_rate"] == 1.0
        assert info["burn_rate"] >= info["violation_rate"]

    def test_disabled_targets_stay_ok(self):
        session, table = _make_session()
        session.attach_slo(SLOPolicy(default=SLOTarget(latency_sec=None)))
        for query in _workload(table, n=6):
            session.submit(query)
        snapshot = session.health()
        assert snapshot["status"] == "ok"
        assert snapshot["queries_recorded"] == 6
        assert snapshot["clock_sec"] > 0.0

    def test_late_attach_monitors_from_attachment_onwards(self):
        # The session keeps no answers to replay: a monitor attached
        # after k requests is a fresh monitor fed requests k+1..n.
        session, table = _make_session()
        k, n = 3, 8
        answers = [session.submit(q) for q in _workload(table, n=n)[:k]]
        session.attach_slo()
        assert session.health()["queries_recorded"] == 0
        answers += [session.submit(q) for q in _workload(table, n=n)[k:]]
        fresh = SLOMonitor()
        for answer in answers[k:]:
            fresh.record(answer)
        expected = fresh.health()
        assert expected["queries_recorded"] == n - k
        expected["anomaly"] = session.agent.anomaly.summary()
        assert session.health() == expected

    def test_status_transitions_emit_events(self):
        session, table = _make_session()
        observer = session.attach_observer()
        session.attach_slo(
            SLOPolicy(default=SLOTarget(latency_sec=1e-12, objective=0.95))
        )
        for query in _workload(table, n=4):
            session.submit(query)
        session.health()
        events = [e.as_dict() for e in observer.events.events]
        statuses = [e for e in events if e["type"] == "slo_status"]
        assert statuses  # at least the none -> breach transition
        assert statuses[0]["previous"] == "none"
        assert statuses[-1]["status"] == "breach"
        healths = [e for e in events if e["type"] == "slo_health"]
        assert healths and healths[-1]["status"] == "breach"


class TestAccuracyAnomaly:
    def test_outlier_fires_after_stable_window(self):
        monitor = AccuracyDriftMonitor(window=32, z_threshold=3.5, min_samples=12)
        for i in range(16):
            assert monitor.observe("sig", 0, 0.01 + 0.001 * (i % 3)) is None
        event = monitor.observe("sig", 0, 1.0)
        assert event is not None
        assert event.signature == "sig"
        assert abs(event.zscore) > 3.5
        assert event.n >= 12
        summary = monitor.summary()
        assert summary["accuracy_anomalies"] == 1.0
        assert summary["accuracy_quanta_flagged"] == 1.0

    def test_no_firing_before_min_samples(self):
        monitor = AccuracyDriftMonitor(min_samples=12)
        assert monitor.observe("sig", 0, 100.0) is None
        assert monitor.observe("sig", 0, 0.0) is None

    def test_quanta_tracked_independently(self):
        monitor = AccuracyDriftMonitor(min_samples=2, z_threshold=3.0)
        for _ in range(8):
            monitor.observe("sig", 0, 0.01)
            monitor.observe("sig", 1, 5.0)
        # Quantum 1's large residuals are its own normal, not an anomaly.
        assert monitor.observe("sig", 1, 5.0) is None
        assert monitor.summary()["accuracy_quanta_tracked"] == 2.0

    def test_session_stats_carry_anomaly_counters(self):
        session, table = _make_session()
        for query in _workload(table, n=10):
            session.submit(query)
        stats = session.stats()
        assert stats["accuracy_residuals_observed"] >= 0.0
        assert "accuracy_anomalies" in stats


# --------------------------------------------------------------------------
# Export ergonomics
# --------------------------------------------------------------------------
class TestExportErgonomics:
    def _observed_session(self):
        session, table = _make_session()
        session.attach_observer()
        for query in _workload(table, n=4):
            session.submit(query)
        return session

    def test_exports_create_parent_directories(self, tmp_path):
        session = self._observed_session()
        path = session.export_profiles(str(tmp_path / "a" / "b" / "p.jsonl"))
        lines = open(path).read().splitlines()
        assert len(lines) == len(session.observer.profiles)
        for line in lines:
            assert json.loads(line)["kind"] == EXPLAIN_ANALYZE

    def test_exports_refuse_silent_overwrite(self, tmp_path):
        session = self._observed_session()
        target = str(tmp_path / "trace.json")
        session.export_trace(target)
        with pytest.raises(ConfigurationError, match="overwrite"):
            session.export_trace(target)
        assert session.export_trace(target, overwrite=True) == target

    def test_export_observability_writes_every_surface(self, tmp_path):
        session = self._observed_session()
        out = str(tmp_path / "dump")
        paths = session.export_observability(out)
        assert sorted(paths) == [
            "events",
            "health",
            "metrics",
            "profiles",
            "trace",
        ]
        health = json.load(open(paths["health"]))
        assert health["status"] in ("ok", "warn", "breach")
        assert "anomaly" in health
        with pytest.raises(ConfigurationError, match="overwrite"):
            session.export_observability(out)
        session.export_observability(out, overwrite=True)

    def test_export_without_observer_raises(self, tmp_path):
        session, _ = _make_session()
        with pytest.raises(ConfigurationError, match="observer"):
            session.export_profiles(str(tmp_path / "p.jsonl"))


# --------------------------------------------------------------------------
# Byte-identity: profiles/events/metrics/spans repeat run to run
# --------------------------------------------------------------------------
def _observability_fingerprint(seed, pruning, faulty):
    """Everything observability exports, for one seeded session."""
    session = SEASession(
        n_nodes=4,
        replication=2 if faulty else 1,
        config=AgentConfig(training_budget=6, error_threshold=0.05, warmup=4),
    )
    try:
        table = gaussian_mixture_table(
            3_000, dims=("x0", "x1"), seed=seed, name="data"
        )
        session.load_table(table)
        session.engine.pruning = pruning
        if faulty:
            session.engine.failure_mode = "degrade"
            nodes = list(session.topology.node_ids)
            schedule = (
                FaultSchedule().crash(nodes[1]).flaky(nodes[2], 0.3)
            )
            session.store.attach_faults(
                FaultInjector(schedule, seed=seed + 1)
            )
        observer = session.attach_observer()
        queries = _workload(table, n=12, seed=seed + 2)
        for query in queries[:6]:
            session.submit(query)
        session.submit_batch(queries[6:])
        health = session.health()
        spans = [
            (s.name, s.category, s.track, s.depth,
             round(s.start, 9), round(s.duration, 9))
            for s in observer.trace.spans
        ]
        return {
            "profiles": observer.profiles.to_jsonl(),
            "renders": [p.render() for p in observer.profiles.profiles],
            "events": observer.events.to_jsonl(),
            "metrics": observer.metrics.as_dict(),
            "spans": spans,
            "health": health,
        }
    finally:
        session.close()


class TestProfileByteIdentity:
    @given(
        seed=st.integers(0, 30),
        pruning=st.booleans(),
        faulty=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_identical_sessions_export_identical_observability(
        self, seed, pruning, faulty
    ):
        first = _observability_fingerprint(seed, pruning, faulty)
        assert first == _observability_fingerprint(seed, pruning, faulty)
