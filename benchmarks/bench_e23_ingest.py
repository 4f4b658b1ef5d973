"""E23 — durable streaming ingestion: throughput vs bounded staleness.

DESIGN §13: writes land in a checksummed WAL plus per-partition deltas
(immediately readable), and a background compactor folds them into the
base images at every epoch boundary.  The design trades write-path work
for a *bounded* staleness window: a staged write waits at most
``epoch_seconds`` of simulated time before it is compacted, synopsis- and
columnar-maintained, and again prunable.

This experiment drives a sustained mixed read/write workload over a
sweep of epoch lengths and measures what that contract costs:

* **Staleness bound (always asserted):** for every append, the simulated
  delay between the write and the epoch close that compacted it must be
  ``<= epoch_seconds``.  This is the experiment's correctness gate and
  what the CI smoke run checks.
* **Byte-identity (always asserted):** after the run, the ingest store's
  merged image must equal, element for element, a legacy synchronous
  store that applied the same writes — durability machinery must never
  change an answer.
* **Throughput:** wall-clock rows/s through the write path and
  queries/s for the interleaved reads, per epoch length.  Longer epochs
  amortize compaction over more writes (higher write throughput, staler
  reads); shorter epochs invert the trade.
* **WAL economics:** bytes synced, bytes reclaimed by pruning, and the
  high-water durable log size per epoch length.
* **Read after append (gated):** after every small append the same
  exact read runs twice.  The first one folds the new rows into each
  partition's base+delta view, the second finds the view ready;
  ``dirty_first_read_ratio`` (median first / median second) is ~1 when
  that fold costs what was appended and grows with the partition when
  it re-copies it.  Gated at ``<= 1.5``.
* **Tail read (recorded):** a second store carries an arrival-ordered
  ``ts`` column; after each append a ``COUNT(*)`` over the ``ts`` tail
  AND an ``x0`` window runs on the dirty store (this read also folds
  the new rows into the views), and the same statement runs again once
  the epoch is compacted.  ``dirty_tail_read_ms`` is what a read of
  fresh data costs — per partition the view extension, the delta zone
  check, two binary searches and a compare over the span;
  ``dirty_tail_read_ratio`` is that over the compacted read.

The cumulative ``BENCH_ingest.json`` trajectory stores medians + IQRs
per epoch length plus the scale knobs and ``host_cpus``.  Scale via
``E23_ROWS`` / ``E23_EPOCHS`` / ``E23_BATCH`` / ``E23_EPOCH_SWEEP``.
"""

import gc
import os

import numpy as np

from repro.baselines import ExactEngine
from repro.cluster import ClusterTopology, DistributedStore
from repro.data import gaussian_mixture_table
from repro.data.tabular import Table
from repro.ingest import IngestConfig
from repro.queries import AnalyticsQuery, Count, Mean, RangeSelection, Std

from harness import (
    format_table,
    record_ingest_benchmark,
    trial_stats,
    wallclock,
    write_result,
)

N_ROWS = int(os.environ.get("E23_ROWS", 300_000))
N_NODES = int(os.environ.get("E23_NODES", 8))
PARTS_PER_NODE = int(os.environ.get("E23_PARTS_PER_NODE", 2))
N_EPOCHS = int(os.environ.get("E23_EPOCHS", 12))
BATCH_ROWS = int(os.environ.get("E23_BATCH", 1_500))
READS_PER_EPOCH = int(os.environ.get("E23_READS", 3))
N_TRIALS = int(os.environ.get("E23_TRIALS", 3))
EPOCH_SWEEP = tuple(
    float(e) for e in os.environ.get("E23_EPOCH_SWEEP", "0.25,1.0,4.0").split(",")
)
HOST_CPUS = os.cpu_count() or 1
SEED = 23  # pinned: the trajectory compares identical workloads
COLUMNS = ("x0", "x1")
# Read-after-append leg: each epoch's batch lands as this many appends.
APPENDS_PER_EPOCH = 8
DIRTY_FIRST_READ_GATE = 1.5
# Tail read: how far below the newest ``ts`` the statement reaches.
TAIL_DEPTH = 4_096


def base_table() -> Table:
    return gaussian_mixture_table(
        N_ROWS, dims=COLUMNS, seed=SEED, name="data"
    )


def write_batches():
    """One deterministic append batch per epoch (plus a delete cadence)."""
    rng = np.random.default_rng(SEED + 1)
    batches = []
    for _ in range(N_EPOCHS):
        batches.append(
            Table(
                {
                    "x0": rng.uniform(0.0, 100.0, BATCH_ROWS),
                    "x1": rng.uniform(0.0, 100.0, BATCH_ROWS),
                    "value": rng.normal(50.0, 10.0, BATCH_ROWS),
                },
                name="data",
            )
        )
    return batches


def read_queries():
    cuts = [
        RangeSelection(COLUMNS, [10.0, 10.0], [60.0, 60.0]),
        RangeSelection(COLUMNS, [0.0, 0.0], [100.0, 45.0]),
        RangeSelection(COLUMNS, [70.0, 20.0], [95.0, 80.0]),
    ]
    aggs = [Count(), Mean("value"), Std("x0")]
    return [
        AnalyticsQuery("data", cuts[i % len(cuts)], aggs[i % len(aggs)])
        for i in range(READS_PER_EPOCH)
    ]


def delete_predicate(epoch: int):
    lo = float((epoch * 7) % 90)
    return lambda t: (t.column("x0") > lo) & (t.column("x0") < lo + 0.5)


def run_mixed_workload(epoch_seconds: float):
    """One full mixed run; returns (measurements, final image, answers)."""
    store = DistributedStore(
        ClusterTopology.single_datacenter(N_NODES)
    )
    store.put_table(base_table(), partitions_per_node=PARTS_PER_NODE)
    pipeline = store.enable_ingest(IngestConfig(epoch_seconds=epoch_seconds))
    engine = ExactEngine(store)
    queries = read_queries()

    # Staleness audit: write clock of every staged-but-uncompacted batch,
    # drained by the epoch listener at each close.
    waiting = []
    staleness = []

    def on_epoch(summary):
        close_clock = summary["clock"]
        while waiting:
            staleness.append(close_clock - waiting.pop(0))

    pipeline.on_epoch(on_epoch)

    answers = []
    for epoch, batch in enumerate(write_batches()):
        pipeline.append("data", batch)
        waiting.append(pipeline.clock)
        if epoch % 3 == 2:
            pipeline.delete("data", delete_predicate(epoch))
        for query in queries:
            value, _ = engine.execute(query)
            answers.append(repr(value))
        pipeline.advance(epoch_seconds)
    pipeline.flush()
    assert pipeline.pending_delta_rows == 0
    assert not waiting, "an epoch close left staged writes unaccounted"

    measurements = {
        "staleness_max": max(staleness),
        "staleness_mean": float(np.mean(staleness)),
        "epochs_closed": pipeline.n_epochs_closed,
        "compactions": pipeline.n_compactions,
        "wal_high_water_bytes": pipeline.wal.high_water_bytes,
        "wal_final_bytes": pipeline.wal.disk_bytes,
        "wal_syncs": pipeline.wal.n_syncs,
    }
    return measurements, store.table("data").full_table(), answers


def reference_image():
    """The same writes through the legacy synchronous path."""
    store = DistributedStore(ClusterTopology.single_datacenter(N_NODES))
    store.put_table(base_table(), partitions_per_node=PARTS_PER_NODE)
    for epoch, batch in enumerate(write_batches()):
        store.append_rows("data", batch)
        if epoch % 3 == 2:
            store.delete_rows("data", delete_predicate(epoch))
    return store.table("data").full_table()


def images_equal(a: Table, b: Table) -> bool:
    if a.n_rows != b.n_rows or a.column_names != b.column_names:
        return False
    return all(
        np.array_equal(a.column(c), b.column(c), equal_nan=True)
        for c in a.column_names
    )


def run_read_after_append():
    """Time the first and the second identical exact read after each
    append, then (on a store of its own) the tail reads."""
    store = DistributedStore(ClusterTopology.single_datacenter(N_NODES))
    store.put_table(base_table(), partitions_per_node=PARTS_PER_NODE)
    pipeline = store.enable_ingest(IngestConfig(epoch_seconds=1.0))
    engine = ExactEngine(store)
    query = read_queries()[0]
    first, second = [], []
    gc.collect()
    gc.disable()
    try:
        for batch in write_batches():
            for piece in batch.split(APPENDS_PER_EPOCH):
                pipeline.append("data", piece)
                (fresh, _), first_sec = wallclock(lambda: engine.execute(query))
                (again, _), second_sec = wallclock(lambda: engine.execute(query))
                assert repr(fresh) == repr(again)
                first.append(first_sec)
                second.append(second_sec)
            pipeline.flush()
    finally:
        gc.enable()
    first_ms = 1e3 * trial_stats(first)["median"]
    second_ms = 1e3 * trial_stats(second)["median"]
    return {
        "dirty_first_read_ms": first_ms,
        "dirty_second_read_ms": second_ms,
        "dirty_first_read_ratio": first_ms / second_ms,
        "dirty_read_samples": len(first),
        **run_tail_reads(),
    }


def run_tail_reads():
    """COUNT(*) over the ``ts`` tail AND an ``x0`` window after each
    append (dirty), and the same statement once the epoch is compacted.

    A store of its own: an arrival-ordered column kept sorted costs the
    view extension a look at each appended piece, which would move the
    first/second ratio above away from its committed trajectory.
    """
    store = DistributedStore(ClusterTopology.single_datacenter(N_NODES))
    store.put_table(
        base_table().with_column("ts", np.arange(N_ROWS, dtype=float)),
        partitions_per_node=PARTS_PER_NODE,
    )
    pipeline = store.enable_ingest(IngestConfig(epoch_seconds=1.0))
    engine = ExactEngine(store)
    dirty, compacted = [], []
    written = N_ROWS
    gc.collect()
    gc.disable()
    try:
        for batch in write_batches():
            for piece in batch.split(APPENDS_PER_EPOCH):
                ts = written + np.arange(piece.n_rows, dtype=float)
                written += piece.n_rows
                pipeline.append("data", piece.with_column("ts", ts))
                tail = AnalyticsQuery(
                    "data",
                    RangeSelection(
                        ("ts", "x0"),
                        [written - 1.0 - TAIL_DEPTH, 20.0],
                        [written - 1.0, 60.0],
                    ),
                    Count(),
                )
                (staged, _), seconds = wallclock(lambda: engine.execute(tail))
                dirty.append(seconds)
            assert repr(staged) == repr(engine.ground_truth(tail))
            pipeline.flush()
            (merged, _), seconds = wallclock(lambda: engine.execute(tail))
            assert repr(merged) == repr(staged)
            compacted.append(seconds)
    finally:
        gc.enable()
    dirty_ms = 1e3 * trial_stats(dirty)["median"]
    compacted_ms = 1e3 * trial_stats(compacted)["median"]
    return {
        "dirty_tail_read_ms": dirty_ms,
        "compacted_tail_read_ms": compacted_ms,
        "dirty_tail_read_ratio": dirty_ms / compacted_ms,
    }


def run_epoch_sweep():
    reference = reference_image()
    reference_answers = None
    sweep = []
    total_written = N_EPOCHS * BATCH_ROWS
    total_reads = N_EPOCHS * READS_PER_EPOCH
    for epoch_seconds in EPOCH_SWEEP:
        trials = []
        measurements = None
        for _ in range(N_TRIALS):
            gc.collect()
            gc.disable()
            try:
                (measurements, image, answers), seconds = wallclock(
                    lambda: run_mixed_workload(epoch_seconds)
                )
            finally:
                gc.enable()
            trials.append(seconds)
            # The staleness contract and byte-identity gate every trial.
            assert measurements["staleness_max"] <= epoch_seconds + 1e-9, (
                f"staleness {measurements['staleness_max']} exceeded the "
                f"configured bound {epoch_seconds}"
            )
            assert images_equal(image, reference), (
                f"ingest image diverged from the synchronous reference at "
                f"epoch_seconds={epoch_seconds}"
            )
            if reference_answers is None:
                reference_answers = answers
            else:
                assert answers == reference_answers, (
                    f"interleaved reads drifted at epoch_seconds={epoch_seconds}"
                )
        stats = trial_stats(trials)
        rate_stats = trial_stats([total_written / t for t in trials])
        entry = {
            "epoch_seconds": epoch_seconds,
            "wall_sec_median": stats["median"],
            "wall_sec_iqr": stats["iqr"],
            "write_rows_per_sec": rate_stats["median"],
            # Per-trial spread, not a first-order estimate: the sentinel
            # widens its tolerance band by this, so a run on a loaded box
            # carries its own noise floor.
            "write_rows_per_sec_iqr": rate_stats["iqr"],
            "reads_per_sec": total_reads / stats["median"],
            "trials": N_TRIALS,
        }
        entry.update(measurements)
        sweep.append(entry)
    return sweep


def test_e23_ingest(benchmark):
    sweep = benchmark.pedantic(run_epoch_sweep, rounds=1, iterations=1)
    dirty_reads = run_read_after_append()
    headers = [
        "epoch_seconds",
        "wall_sec_median",
        "write_rows_per_sec",
        "reads_per_sec",
        "staleness_max",
        "compactions",
        "wal_high_water_bytes",
    ]
    rows = [[entry[h] for h in headers] for entry in sweep]
    table = format_table(
        f"E23: durable ingest, {N_ROWS} base rows + "
        f"{N_EPOCHS}x{BATCH_ROWS} appended over "
        f"{N_NODES * PARTS_PER_NODE} partitions ({HOST_CPUS} host CPUs)",
        headers,
        rows,
    )
    write_result(
        "e23_ingest",
        table,
        headers=headers,
        rows=rows,
        extra={
            "host_cpus": HOST_CPUS,
            "rows": N_ROWS,
            "epochs": N_EPOCHS,
            "batch_rows": BATCH_ROWS,
            "reads_per_epoch": READS_PER_EPOCH,
            **dirty_reads,
        },
    )
    record_ingest_benchmark(
        "e23_ingest",
        n_rows=N_ROWS,
        n_nodes=N_NODES,
        partitions=N_NODES * PARTS_PER_NODE,
        epochs=N_EPOCHS,
        batch_rows=BATCH_ROWS,
        reads_per_epoch=READS_PER_EPOCH,
        byte_identical=True,  # asserted per trial in run_epoch_sweep
        staleness_bounded=True,  # asserted per trial in run_epoch_sweep
        sweep=sweep,
        **dirty_reads,
    )
    assert dirty_reads["dirty_first_read_ratio"] <= DIRTY_FIRST_READ_GATE, (
        f"the first exact read after an append took "
        f"{dirty_reads['dirty_first_read_ratio']:.2f}x the second "
        f"({dirty_reads['dirty_first_read_ms']:.3f} ms vs "
        f"{dirty_reads['dirty_second_read_ms']:.3f} ms): the base+delta "
        f"view is being re-copied, not extended"
    )
    best = max(sweep, key=lambda s: s["write_rows_per_sec"])
    benchmark.extra_info["host_cpus"] = HOST_CPUS
    benchmark.extra_info["best_write_rows_per_sec"] = best["write_rows_per_sec"]
    benchmark.extra_info["staleness_max"] = max(
        s["staleness_max"] for s in sweep
    )
    benchmark.extra_info["dirty_first_read_ratio"] = dirty_reads[
        "dirty_first_read_ratio"
    ]
    benchmark.extra_info["dirty_tail_read_ms"] = dirty_reads["dirty_tail_read_ms"]
