"""Unit + property tests for repro.obs: spans, metrics, events, observer."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CostMeter
from repro.obs import (
    NULL_OBSERVER,
    EventLog,
    MetricsRegistry,
    Observer,
    StackObserver,
    TraceRecorder,
)


class TestTraceRecorder:
    def test_metered_span_duration_follows_simulated_clock(self):
        rec = TraceRecorder()
        meter = CostMeter()
        with rec.span("job", meter=meter):
            meter.advance(2.5)
        (span,) = rec.spans
        assert span.start == pytest.approx(0.0)
        assert span.duration == pytest.approx(2.5)
        assert rec.now == pytest.approx(2.5)

    def test_sequential_jobs_lay_out_back_to_back(self):
        rec = TraceRecorder()
        for seconds in (1.0, 2.0):
            meter = CostMeter()
            with rec.span("job", meter=meter):
                meter.advance(seconds)
        first, second = rec.spans
        assert first.start == pytest.approx(0.0)
        assert second.start == pytest.approx(1.0)
        assert second.end == pytest.approx(3.0)

    def test_outer_unmetered_span_brackets_inner_metered_work(self):
        rec = TraceRecorder()
        with rec.span("query"):
            meter = CostMeter()
            with rec.span("engine", meter=meter):
                meter.advance(4.0)
        engine, query = rec.spans  # inner closes (appends) first
        assert engine.name == "engine"
        assert query.duration == pytest.approx(4.0)
        assert query.contains(engine)
        assert query.depth == 0 and engine.depth == 1

    def test_nested_phases_share_the_meter(self):
        rec = TraceRecorder()
        meter = CostMeter()
        with rec.span("job", meter=meter):
            with rec.span("map", meter=meter):
                meter.advance(1.0)
            with rec.span("reduce", meter=meter):
                meter.advance(0.5)
        by_name = {s.name: s for s in rec.spans}
        assert by_name["map"].start == pytest.approx(0.0)
        assert by_name["map"].duration == pytest.approx(1.0)
        assert by_name["reduce"].start == pytest.approx(1.0)
        assert by_name["job"].duration == pytest.approx(1.5)
        assert by_name["job"].contains(by_name["map"])
        assert by_name["job"].contains(by_name["reduce"])

    def test_span_records_cost_deltas(self):
        rec = TraceRecorder()
        meter = CostMeter()
        meter.charge_scan("n0", 1000)
        with rec.span("phase", meter=meter):
            meter.charge_scan("n1", 500)
            meter.charge_transfer("n1", "n2", 200)
            meter.advance(0.1)
        (span,) = rec.spans
        assert span.args["bytes_scanned"] == 500  # delta, not total
        assert span.args["bytes_shipped"] == 200
        assert span.args["nodes_touched"] == 2  # n1, n2 are new

    def test_record_lays_parallel_tasks_on_tracks(self):
        rec = TraceRecorder()
        start = rec.now
        rec.record("task-a", start, 2.0, track="node-0")
        rec.record("task-b", start, 3.0, track="node-1")
        doc = rec.to_chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in xs} == {1, 2}  # distinct non-main threads
        names = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {"main", "node-0", "node-1"} <= names

    def test_chrome_trace_round_trip(self, tmp_path):
        rec = TraceRecorder()
        meter = CostMeter()
        with rec.span("job", meter=meter, category="job", table="t"):
            meter.advance(1.25)
        path = rec.export(str(tmp_path / "trace.json"))
        doc = json.loads(open(path).read())
        (meta, event) = doc["traceEvents"]
        assert event["name"] == "job"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(0.0)
        assert event["dur"] == pytest.approx(1.25e6)  # simulated sec -> us
        assert event["args"]["table"] == "t"

    def test_inner_foreign_meter_folds_time_outward(self):
        # An inner engine meter (its own clock) must push the outer
        # span's timeline forward, not vanish.
        rec = TraceRecorder()
        outer = CostMeter()
        with rec.span("geo", meter=outer):
            outer.advance(1.0)
            inner = CostMeter()
            with rec.span("core_job", meter=inner):
                inner.advance(5.0)
            outer.advance(0.5)
        by_name = {s.name: s for s in rec.spans}
        assert by_name["core_job"].start == pytest.approx(1.0)
        assert by_name["geo"].duration == pytest.approx(6.5)
        assert by_name["geo"].contains(by_name["core_job"])


class TestMetricsRegistry:
    def test_counter_accumulates_and_exposes(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", "Total queries").labels(mode="train").inc()
        reg.counter("queries_total").labels(mode="train").inc(2)
        reg.counter("queries_total").labels(mode="predicted").inc()
        text = reg.exposition()
        assert "# TYPE queries_total counter" in text
        assert 'queries_total{mode="train"} 3' in text
        assert 'queries_total{mode="predicted"} 1' in text

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(Exception):
            reg.counter("c").inc(-1)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(Exception):
            reg.gauge("x")

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(4.5)
        assert reg.as_dict()["g"] == 4.5

    def test_histogram_quantiles_from_reservoir(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency_seconds").labels()
        for v in np.linspace(0.0, 1.0, 101):
            hist.observe(float(v))
        assert hist.count == 101
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        text = reg.exposition()
        assert "# TYPE latency_seconds summary" in text
        assert "latency_seconds_count 101" in text
        assert 'quantile="0.5"' in text

    def test_empty_histogram_is_nan_not_crash(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        h = reg.histogram("h").labels()
        assert math.isnan(h.quantile(0.5))
        assert "NaN" in reg.exposition()

    def test_as_dict_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        flat = reg.as_dict()
        assert flat["h_count"] == 1.0
        assert flat["h_sum"] == 2.0
        assert flat["h_p50"] == pytest.approx(2.0)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_property_histogram_sum_count_exact(self, values):
        reg = MetricsRegistry()
        h = reg.histogram("h").labels()
        for v in values:
            h.observe(v)
        assert h.count == len(values)
        assert h.total == pytest.approx(sum(values), rel=1e-9, abs=1e-9)
        q = h.quantile(0.5)
        assert min(values) <= q <= max(values)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.floats(0, 100)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_labeled_counters_partition_the_total(self, incs):
        reg = MetricsRegistry()
        for label, amount in incs:
            reg.counter("c").labels(kind=label).inc(amount)
        flat = reg.as_dict()
        total = sum(v for k, v in flat.items() if k.startswith("c{"))
        assert total == pytest.approx(sum(a for _, a in incs))


class TestEventLog:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("fallback", ts=1.5, signature="t:count", error_estimate=0.2)
        log.emit("drift", ts=2.0, quantum_id=3)
        path = log.export(str(tmp_path / "events.jsonl"))
        loaded = EventLog.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0]["type"] == "fallback"
        assert loaded[0]["ts"] == 1.5
        assert loaded[0]["error_estimate"] == 0.2
        assert loaded[1]["quantum_id"] == 3

    def test_numpy_fields_serialize(self, tmp_path):
        log = EventLog()
        log.emit("x", value=np.float64(0.5), count=np.int64(3))
        path = log.export(str(tmp_path / "e.jsonl"))
        (row,) = EventLog.load_jsonl(path)
        assert row["value"] == 0.5
        assert row["count"] == 3

    def test_capacity_drops_and_counts(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 2
        assert log.n_dropped == 3

    def test_of_type_filters(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert len(log.of_type("a")) == 2
        assert len(log.of_type("a", "b")) == 3


class TestObserver:
    def test_null_observer_is_inert_and_shared(self):
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.now == 0.0
        with NULL_OBSERVER.span("anything", meter=None) as args:
            assert args == {}
        NULL_OBSERVER.on_charge("scan", "n", 10, 0.1)
        NULL_OBSERVER.inc("c")
        NULL_OBSERVER.event("e", x=1)  # all no-ops, no state anywhere

    def test_null_meter_hot_path_has_no_observer(self):
        meter = CostMeter()
        assert meter.observer is None
        meter_with_null = CostMeter(observer=Observer())
        # A disabled observer is dropped at construction: the per-charge
        # path stays a plain None check.
        assert meter_with_null.observer is None

    def test_stack_observer_on_charge_feeds_metrics(self):
        obs = StackObserver()
        meter = CostMeter(observer=obs)
        meter.charge_scan("n0", 1000)
        meter.charge_transfer("n0", "n1", 500, wan=True)
        flat = obs.metrics.as_dict()
        assert flat['sea_charge_bytes_total{kind="scan"}'] == 1000
        assert flat['sea_charge_bytes_total{kind="transfer_wan"}'] == 500
        assert flat['sea_charges_total{kind="scan"}'] == 1.0

    def test_stack_observer_event_stamps_simulated_time(self):
        obs = StackObserver()
        meter = CostMeter(observer=obs)
        with obs.span("job", meter=meter):
            meter.advance(3.0)
        obs.event("after", note="done")
        (event,) = obs.events.of_type("after")
        assert event.ts == pytest.approx(3.0)

    def test_snapshot_includes_volumes(self):
        obs = StackObserver()
        with obs.span("s"):
            pass
        obs.event("e")
        snap = obs.snapshot()
        assert snap["obs_spans_recorded"] == 1.0
        assert snap["obs_events_recorded"] == 1.0


class TestConcurrentCharging:
    """The gateway's serve loop and its serving thread share these
    objects, so updates from real threads must lose nothing."""

    def test_metrics_registry_loses_nothing_under_contention(self):
        registry = MetricsRegistry()
        n_threads, n_ops = 8, 300

        def worker(i):
            for j in range(n_ops):
                registry.counter("hits").labels(kind=str(j % 3)).inc()
                registry.histogram("lat").labels().observe(1.0)
                registry.gauge("depth").labels().inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = registry.as_dict()
        total = n_threads * n_ops
        assert sum(
            v for k, v in snapshot.items() if k.startswith("hits{")
        ) == total
        assert snapshot["lat_count"] == total
        assert snapshot["lat_sum"] == pytest.approx(float(total))
        assert snapshot["depth"] == total
