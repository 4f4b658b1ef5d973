"""The benchmark's declared metrics: name, unit, direction, bound.

``BENCHMARK.json`` at the repo root repeats these lists (it must be a
literal file); ``test_e2e_smoke.py`` fails if the two ever differ.

Every workload prints every end-to-end metric, so the list holds only
what all four can measure and what is never zero.  ``README.md`` says
where the issue's workload-specific ones (``write_p99_ms``,
``observed_throughput_qps``, ``sim_bytes_per_query``, ``fail_share``...)
went: they are per-layer metrics here, under a layer prefix.
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may get worse before a change counts as a regression.
#: Seconds and milliseconds are host wall-clock time.  A bound is three
#: times the widest inter-quartile spread (over ten seeds, as a share of
#: the median) any workload showed on the sizing host, capped at 0.25:
#: README.md has the table.
END_TO_END: List[Tuple[str, str, str, float]] = [
    # Table generation + load_table + warm/train + freeze (median of 3).
    ("setup_s", "s", "lower", 0.25),
    # Operations (gateway requests + write calls) a closed loop of one
    # client completes per second, median over 12 chunks of the window;
    # on open_mixed the closed-loop capacity pass over the same mix.
    ("throughput_qps", "ops/s", "higher", 0.25),
    # Read-request latency: closed loop from issue, open loop from the
    # instant the request was due (steady phase); median over the chunks
    # of the window of each chunk's median.  (The p99 did not repeat within
    # 0.25 on open_mixed and is the per-layer serve.latency_p99_ms.)
    ("latency_p50_ms", "ms", "lower", 0.25),
    # Share of read requests answered mode == "predicted".
    ("dataless_share", "ratio", "higher", 0.10),
    # Share of the predicted answers the oracle checked that lie within
    # 0.10 of ExactEngine.ground_truth (|err| / max(|truth|, 1)).
    ("accurate_answer_share", "ratio", "higher", 0.10),
    # (stored bytes + WAL disk bytes + pending deltas) / live rows * 40 B.
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    # ru_maxrss of the run's single process.
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better).  ``*_ms`` span metrics are mean milliseconds per
#: read request of the traced window (ingest.* per write call), so the
#: self-time rows of one request add up to its traced latency.
PER_LAYER: List[Tuple[str, str, str]] = [
    # queries / serve / core hot path -> throughput, p50 on hot_closed
    ("queries.parse_ms", "ms", "lower"),
    ("serve.submit_self_ms", "ms", "lower"),
    ("core.submit_self_ms", "ms", "lower"),
    ("core.cache_lookup_ms", "ms", "lower"),
    ("core.cache_hit_rate", "ratio", "higher"),
    ("core.cache_evictions", "count", "lower"),
    ("core.predict_ms", "ms", "lower"),
    ("core.predict_calls", "count", "lower"),
    # engine / parallel / cluster -> throughput, p50 on scan_closed
    ("engine.execute_ms", "ms", "lower"),
    ("engine.execute_calls", "count", "lower"),
    ("engine.execute_many_ms", "ms", "lower"),
    ("engine.batch_jobs_mean", "count", "higher"),
    ("engine.plan_ms", "ms", "lower"),
    ("engine.map_kernel_ms", "ms", "lower"),
    ("engine.reduce_self_ms", "ms", "lower"),
    ("parallel.run_ms", "ms", "lower"),
    ("parallel.run_self_ms", "ms", "lower"),
    ("parallel.morsels_per_run", "count", "lower"),
    ("cluster.read_ms", "ms", "lower"),
    ("cluster.read_calls_per_query", "count", "lower"),
    ("engine.partitions_scanned_per_query", "count", "lower"),
    ("engine.partitions_skipped_per_query", "count", "higher"),
    ("engine.partitions_synopsis_per_query", "count", "higher"),
    ("engine.sim_bytes_scanned_per_query", "bytes", "lower"),
    ("engine.sim_elapsed_ms_per_query", "ms", "lower"),
    ("engine.nodes_touched_per_query", "count", "lower"),
    # learning -> throughput, dataless_share, peak_rss on scan_closed, mixed_rw
    ("core.learn_ms", "ms", "lower"),
    ("core.learn_calls", "count", "lower"),
    ("core.dataless_share", "ratio", "higher"),
    ("core.fallback_share", "ratio", "lower"),
    ("core.train_share", "ratio", "lower"),
    ("core.state_bytes", "bytes", "lower"),
    ("core.answer_rel_err_p95", "ratio", "lower"),
    # write path -> mixed_rw
    ("ingest.write_rows_per_s", "rows/s", "higher"),
    ("ingest.write_p99_ms", "ms", "lower"),
    ("ingest.append_ms", "ms", "lower"),
    ("ingest.delete_ms", "ms", "lower"),
    ("ingest.advance_ms", "ms", "lower"),
    ("ingest.epoch_close_p50_ms", "ms", "lower"),
    ("ingest.epoch_close_p99_ms", "ms", "lower"),
    ("ingest.epochs_closed", "count", "higher"),
    ("ingest.compactions", "count", "lower"),
    ("cluster.compact_partition_ms", "ms", "lower"),
    ("ingest.wal_bytes_per_user_byte", "ratio", "lower"),
    ("ingest.wal_syncs", "count", "lower"),
    ("ingest.wal_high_water_bytes", "bytes", "lower"),
    ("ingest.pending_delta_rows_max", "count", "lower"),
    ("ingest.retries", "count", "lower"),
    ("ingest.recover_ms", "ms", "lower"),
    ("ingest.dirty_read_share", "ratio", "lower"),
    ("core.cache_invalidations", "count", "lower"),
    ("core.cache_stale_rejected", "count", "lower"),
    # the tail of the end-to-end read latency (untraced window)
    ("serve.latency_p99_ms", "ms", "lower"),
    # gateway under an arrival schedule -> open_mixed
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.coalesced_share", "ratio", "higher"),
    ("serve.inline_share", "ratio", "higher"),
    ("serve.batch_window_ms", "ms", "lower"),
    ("serve.refused_share", "ratio", "lower"),
    ("serve.shed_share", "ratio", "lower"),
    ("serve.late_share", "ratio", "lower"),
    ("serve.useful_work_share", "ratio", "higher"),
    ("serve.overload_goodput_qps", "req/s", "higher"),
    ("serve.gen_lag_p99_ms", "ms", "lower"),
    ("serve.gen_idle_lag_p99_ms", "ms", "lower"),
    # set-up and space
    ("cluster.put_table_s", "s", "lower"),
    ("core.warm_s", "s", "lower"),
    ("cluster.stored_bytes", "bytes", "lower"),
    ("cluster.user_bytes", "bytes", "lower"),
    ("cluster.synopsis_bytes", "bytes", "lower"),
    # always-on recording -> hot_closed
    ("obs.attached_throughput_qps", "ops/s", "higher"),
    ("obs.attached_overhead_share", "ratio", "lower"),
    ("obs.profiles_recorded", "count", "higher"),
    ("obs.profiles_dropped", "count", "lower"),
    # harness validity and the failure tally
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.spans_recorded", "count", "lower"),
    ("trace.layer_share_front", "ratio", "higher"),
    ("trace.layer_share_scan", "ratio", "higher"),
    ("check.fail_share", "ratio", "lower"),
    ("check.exact_answers_checked", "count", "higher"),
    ("check.predicted_answers_checked", "count", "higher"),
]

#: Counts that repeat bit for bit on a closed-loop workload and one seed.
EXACT_ON_CLOSED_LOOPS = (
    "dataless_share",
    "accurate_answer_share",
    "stored_bytes_per_user_byte",
)


def benchmark_json(command, paths, run_seconds, workloads) -> dict:
    """The document BENCHMARK.json must equal."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
