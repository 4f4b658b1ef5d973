"""Unit tests for repro.common: accounting, rng, validation."""

import threading

import numpy as np
import pytest

from repro.common import (
    ConfigurationError,
    CostMeter,
    CostRates,
    CostReport,
    make_rng,
    require,
    require_in_range,
    require_matrix,
    require_positive,
    spawn_rngs,
)


class TestCostRates:
    def test_defaults_positive(self):
        rates = CostRates()
        assert rates.disk_bytes_per_sec > 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CostRates(disk_bytes_per_sec=0)


class TestCostMeter:
    def test_scan_charges_bytes_and_time(self):
        meter = CostMeter()
        seconds = meter.charge_scan("n1", 100_000_000, rows=10)
        assert seconds == pytest.approx(1.0)
        report = meter.freeze()
        assert report.bytes_scanned == 100_000_000
        assert report.rows_examined == 10
        assert report.node_sec == pytest.approx(1.0)

    def test_nodes_touched_counts_unique(self):
        meter = CostMeter()
        meter.charge_scan("n1", 10)
        meter.charge_scan("n1", 10)
        meter.charge_scan("n2", 10)
        assert meter.freeze().nodes_touched == 2

    def test_wan_vs_lan_transfer(self):
        meter = CostMeter()
        lan = meter.charge_transfer("a", "b", 10**9, wan=False)
        wan = meter.charge_transfer("a", "b", 10**9, wan=True)
        assert wan > lan
        report = meter.freeze()
        assert report.bytes_shipped_lan == 10**9
        assert report.bytes_shipped_wan == 10**9
        assert report.messages == 2

    def test_advance_rejects_negative(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.advance(-1.0)

    def test_elapsed_accumulates(self):
        meter = CostMeter()
        meter.advance(1.0)
        meter.advance(0.5)
        assert meter.freeze().elapsed_sec == pytest.approx(1.5)

    def test_layers_and_tasks(self):
        meter = CostMeter()
        meter.charge_layers("n1", 5)
        meter.charge_task_startup("n1", count=3)
        report = meter.freeze()
        assert report.layers_crossed == 5
        assert report.tasks_launched == 3

    def test_freeze_is_snapshot(self):
        meter = CostMeter()
        meter.charge_scan("n1", 100)
        first = meter.freeze()
        meter.charge_scan("n2", 100)
        assert first.bytes_scanned == 100
        assert meter.freeze().bytes_scanned == 200

    def test_frozen_report_equals_the_meter_field_for_field_and_is_independent(self):
        meter = CostMeter()
        meter.charge_scan("n1", 1000, rows=10)
        meter.charge_point_read("n2", 64, rows=1)
        meter.charge_cpu("n1", 4096)
        meter.charge_transfer("n1", "n2", 500)
        meter.charge_transfer("n2", "n3", 700, wan=True)
        meter.charge_task_startup("n3", count=2)
        meter.charge_layers("n1", 3)
        meter.advance(0.25)
        frozen = meter.freeze()
        want = meter._report.as_dict()  # every field, by reflection
        want["nodes_touched"] = 3
        assert frozen.as_dict() == want
        assert all(value != 0 for value in want.values())  # no field untested
        meter.charge_scan("n4", 10**6, rows=999)
        meter.advance(9.0)
        assert frozen.as_dict() == want  # later charges do not show
        frozen.bytes_scanned = -1
        assert meter.freeze().bytes_scanned == 1000 + 64 + 10**6


class TestCostReport:
    def test_parallel_merge_takes_max_elapsed(self):
        a = CostReport(elapsed_sec=2.0, node_sec=2.0, bytes_scanned=10)
        b = CostReport(elapsed_sec=3.0, node_sec=3.0, bytes_scanned=20)
        merged = a.merged_parallel(b)
        assert merged.elapsed_sec == 3.0
        assert merged.node_sec == 5.0
        assert merged.bytes_scanned == 30

    def test_sequential_merge_adds_elapsed(self):
        a = CostReport(elapsed_sec=2.0)
        b = CostReport(elapsed_sec=3.0)
        assert a.merged_sequential(b).elapsed_sec == 5.0

    def test_dollars_includes_wan_egress(self):
        report = CostReport(node_sec=3600.0, bytes_shipped_wan=10**9)
        rates = CostRates()
        expected = 0.10 + rates.dollars_per_wan_gb
        assert report.dollars(rates) == pytest.approx(expected)

    def test_total_folds_reports(self):
        reports = [CostReport(elapsed_sec=1.0, node_sec=1.0)] * 3
        seq = CostMeter.total(reports, parallel=False)
        par = CostMeter.total(reports, parallel=True)
        assert seq.elapsed_sec == 3.0
        assert par.elapsed_sec == 1.0
        assert seq.node_sec == par.node_sec == 3.0

    def test_as_dict_fields(self):
        d = CostReport().as_dict()
        assert "elapsed_sec" in d and "bytes_scanned" in d

    def test_total_of_empty_iterable_is_zero_report(self):
        for parallel in (False, True):
            report = CostMeter.total([], parallel=parallel)
            assert report.elapsed_sec == 0.0
            assert report.node_sec == 0.0
            assert report.bytes_scanned == 0

    def test_total_of_single_report_is_identity(self):
        one = CostReport(
            elapsed_sec=2.5, node_sec=4.0, bytes_scanned=7, nodes_touched=3
        )
        for parallel in (False, True):
            total = CostMeter.total([one], parallel=parallel)
            assert total.as_dict() == one.as_dict()

    def test_total_accepts_any_iterable(self):
        gen = (CostReport(elapsed_sec=1.0) for _ in range(4))
        assert CostMeter.total(gen).elapsed_sec == 4.0

    def test_parallel_total_elapsed_is_max_of_branches(self):
        reports = [
            CostReport(elapsed_sec=float(i), node_sec=float(i))
            for i in (3, 1, 2)
        ]
        par = CostMeter.total(reports, parallel=True)
        assert par.elapsed_sec == 3.0  # critical path, order-independent
        assert par.node_sec == 6.0  # occupancy always adds

    def test_merge_does_not_mutate_operands(self):
        a = CostReport(elapsed_sec=1.0, bytes_scanned=5)
        b = CostReport(elapsed_sec=2.0, bytes_scanned=6)
        a.merged_parallel(b)
        a.merged_sequential(b)
        assert a.bytes_scanned == 5 and b.bytes_scanned == 6
        assert a.elapsed_sec == 1.0 and b.elapsed_sec == 2.0

    def test_merge_sums_every_consumption_field(self):
        a = CostReport(
            elapsed_sec=1.0,
            node_sec=1.0,
            bytes_scanned=1,
            bytes_shipped_lan=2,
            bytes_shipped_wan=3,
            nodes_touched=4,
            tasks_launched=5,
            layers_crossed=6,
            rows_examined=7,
            messages=8,
        )
        merged = a.merged_sequential(a)
        for field, value in merged.as_dict().items():
            if field == "elapsed_sec":
                assert value == 2.0
            else:
                assert value == 2 * a.as_dict()[field], field


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1.0, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_require_in_range(self):
        require_in_range(0.5, "q", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            require_in_range(1.5, "q", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            require_in_range(0.0, "q", 0.0, 1.0, inclusive=False)

    def test_require_matrix_promotes_1d(self):
        out = require_matrix([1.0, 2.0], "v")
        assert out.shape == (1, 2)

    def test_require_matrix_checks_columns(self):
        with pytest.raises(ConfigurationError):
            require_matrix(np.zeros((3, 2)), "m", n_cols=3)


class TestConcurrentCharging:
    """The gateway's serve loop and its serving thread share these
    objects, so updates from real threads must lose nothing."""

    def test_cost_meter_loses_nothing_under_contention(self):
        meter = CostMeter()
        n_threads, n_charges = 8, 400

        def worker():
            for _ in range(n_charges):
                # Equal-valued charges: float sums are order-independent.
                meter.charge_scan("n0", 1024, rows=2)
                meter.charge_transfer("n0", "n1", 256)
                meter.charge_layers("n2", 1)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = meter.freeze()
        total = n_threads * n_charges
        assert report.bytes_scanned == total * 1024
        assert report.rows_examined == total * 2
        assert report.bytes_shipped_lan == total * 256
        assert report.messages == total
        assert report.layers_crossed == total
        assert report.nodes_touched == 3
        rates = meter.rates
        expected = total * (
            1024 / rates.disk_bytes_per_sec
            + rates.lan_rtt_sec
            + 256 / rates.lan_bytes_per_sec
            + rates.layer_overhead_sec
        )
        assert report.node_sec == pytest.approx(expected, rel=1e-12)
