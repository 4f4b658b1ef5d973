"""The benchmark regression sentinel (``benchmarks/regress.py``).

Drives :func:`regress.main` against synthetic trajectory files in a tmp
directory: a 20% slowdown in the newest entry must flag (exit 1), stable
or improved trajectories must pass, thin histories are skipped, noisy
histories widen the tolerance band, and lower-is-better metrics flag in
the opposite direction.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import regress  # noqa: E402


def _write_serving(root, batched_values, sequential=2000.0):
    entries = [
        {
            "experiment": "e03_throughput",
            "recorded_at": f"2026-08-0{i + 1}T00:00:00",
            "rows": 50000,
            "queries": 1000,
            "batched_qps": value,
            "batched_qps_iqr": 0.0,
            "sequential_qps": sequential,
            "sequential_qps_iqr": 0.0,
        }
        for i, value in enumerate(batched_values)
    ]
    path = os.path.join(root, "BENCH_serving.json")
    with open(path, "w") as handle:
        json.dump({"entries": entries}, handle)
    return path


def _write_columnar(root, wall_values):
    entries = [
        {
            "experiment": "e21_columnar",
            "n_rows": 60000,
            "partitions": 64,
            "col_wall_sec_low_sel": value,
            "col_wall_sec_low_sel_iqr": 0.0,
        }
        for value in wall_values
    ]
    path = os.path.join(root, "BENCH_columnar.json")
    with open(path, "w") as handle:
        json.dump({"entries": entries}, handle)
    return path


def _write_gateway(root, goodput_values, ratios=None):
    ratios = ratios or [1.0] * len(goodput_values)
    entries = [
        {
            "experiment": "e24_gateway",
            "rows": 20000,
            "requests": 400,
            "tenants": 2,
            "host_cpus": 1,
            "high_rate_goodput_qps": goodput,
            "high_rate_goodput_iqr": 0.0,
            "passthrough_p50_ratio": ratio,
        }
        for goodput, ratio in zip(goodput_values, ratios)
    ]
    path = os.path.join(root, "BENCH_serving_gateway.json")
    with open(path, "w") as handle:
        json.dump({"entries": entries}, handle)
    return path


def _write_ingest(root, ratios):
    entries = [
        {
            "experiment": "e23_ingest",
            "n_rows": 20000,
            "partitions": 16,
            "epochs": 4,
            "batch_rows": 300,
            "reads_per_epoch": 3,
            "host_cpus": 1,
            "sweep": [
                {
                    "epoch_seconds": 0.5,
                    "write_rows_per_sec": 100000.0,
                    "write_rows_per_sec_iqr": 0.0,
                }
            ],
            "dirty_first_read_ratio": ratio,
        }
        for ratio in ratios
    ]
    path = os.path.join(root, "BENCH_ingest.json")
    with open(path, "w") as handle:
        json.dump({"entries": entries}, handle)
    return path


class TestRegressionSentinel:
    def test_flags_synthetic_20pct_slowdown(self, tmp_path, capsys):
        _write_serving(str(tmp_path), [1000.0, 1000.0, 800.0])
        assert regress.main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "batched_qps=800" in err

    def test_passes_on_stable_and_improved_trajectories(self, tmp_path):
        _write_serving(str(tmp_path), [1000.0, 1000.0, 1000.0])
        assert regress.main(["--root", str(tmp_path)]) == 0
        _write_serving(str(tmp_path), [1000.0, 1000.0, 1300.0])
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_small_dip_within_tolerance_passes(self, tmp_path):
        _write_serving(str(tmp_path), [1000.0, 1000.0, 950.0])
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_thin_history_is_skipped_not_gated(self, tmp_path, capsys):
        # One prior entry is not a trend: even a 50% drop passes.
        _write_serving(str(tmp_path), [1000.0, 500.0])
        assert regress.main(["--root", str(tmp_path)]) == 0
        assert "checked" not in capsys.readouterr().out

    def test_noisy_history_widens_the_band(self, tmp_path):
        # Prior IQR ~300: a drop that the flat-history gate would flag
        # stays within 1.5x IQR of this noisy trajectory.
        _write_serving(str(tmp_path), [700.0, 1000.0, 1300.0, 800.0])
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_lower_is_better_flags_slowdowns_only(self, tmp_path):
        _write_columnar(str(tmp_path), [10.0, 10.0, 12.5])
        assert regress.main(["--root", str(tmp_path)]) == 1
        _write_columnar(str(tmp_path), [10.0, 10.0, 8.0])
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_gateway_goodput_and_p50_ratio_directions(self, tmp_path, capsys):
        # Goodput is higher-is-better: a 20% drop flags.
        _write_gateway(str(tmp_path), [2800.0, 2800.0, 2240.0])
        assert regress.main(["--root", str(tmp_path)]) == 1
        assert "high_rate_goodput_qps" in capsys.readouterr().err
        # The pass-through p50 ratio is lower-is-better: creeping past
        # the historical band flags even while goodput holds.
        _write_gateway(
            str(tmp_path),
            [2800.0, 2800.0, 2800.0],
            ratios=[0.97, 0.99, 1.25],
        )
        assert regress.main(["--root", str(tmp_path)]) == 1
        assert "passthrough_p50_ratio" in capsys.readouterr().err
        _write_gateway(
            str(tmp_path),
            [2800.0, 2800.0, 2900.0],
            ratios=[0.97, 0.99, 1.00],
        )
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_ingest_dirty_first_read_ratio_is_lower_is_better(
        self, tmp_path, capsys
    ):
        # The first read after an append creeping away from the second
        # flags even while write throughput holds; entries recorded
        # before the leg existed carry no ratio and form no history.
        _write_ingest(str(tmp_path), [1.02, 1.05, 2.6])
        assert regress.main(["--root", str(tmp_path)]) == 1
        assert "dirty_first_read_ratio" in capsys.readouterr().err
        _write_ingest(str(tmp_path), [2.7, 2.6, 1.03])
        assert regress.main(["--root", str(tmp_path)]) == 0
        _write_ingest(str(tmp_path), [None, None, 1.03])
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_groups_never_mix_scales(self, tmp_path):
        # A reduced-scale smoke entry trails full-scale history: its
        # different (rows, queries) key forms a separate (thin) group.
        path = _write_serving(str(tmp_path), [1000.0, 1000.0, 1000.0])
        payload = json.load(open(path))
        smoke = dict(payload["entries"][-1])
        smoke.update({"rows": 10000, "queries": 300, "batched_qps": 100.0})
        payload["entries"].append(smoke)
        json.dump(payload, open(path, "w"))
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_missing_and_corrupt_files_are_tolerated(self, tmp_path):
        assert regress.main(["--root", str(tmp_path)]) == 0
        with open(os.path.join(str(tmp_path), "BENCH_serving.json"), "w") as f:
            f.write("not json")
        assert regress.main(["--root", str(tmp_path)]) == 0

    def test_committed_repo_trajectories_pass(self):
        repo_root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..")
        )
        assert regress.main(["--root", repo_root]) == 0
