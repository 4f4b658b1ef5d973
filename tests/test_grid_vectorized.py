"""Bitwise regression: vectorized grid ingest vs the historical per-row loop.

The grid index (:mod:`repro.bigdataless.index`) and the canopy segment
cache used to fold rows into cells one python iteration at a time.  The
vectorized replacements (``group_rows_by_cell`` + ``np.add.at``) must be
*bitwise* equal — same keys in the same insertion order, same float sums
bit for bit (including ``-0.0`` and NaN), same row directories — because
downstream answers, cost reports and fetch plans are compared with
``repr`` equality.
"""

import numpy as np
import pytest

from repro.baselines.canopy import SegmentStatsCache
from repro.bigdataless.index import (
    DistributedGridIndex,
    group_rows_by_cell,
    split_rows_by_partition,
)
from repro.cluster import ClusterTopology, DistributedStore
from repro.data import Table, gaussian_mixture_table


def legacy_fold(per_part_points, per_part_cells):
    """The pre-vectorization per-row fold, verbatim.

    Returns ``(stats, rows)`` where stats maps cell key -> (count,
    sums-array built by the sequential ``sums + row`` left fold) and
    rows maps cell key -> [(partition, row), ...] in append order.
    """
    stats = {}
    rows = {}
    for part_idx, (points, cells) in enumerate(
        zip(per_part_points, per_part_cells)
    ):
        for row_idx, key in enumerate(map(tuple, cells)):
            rows.setdefault(key, []).append((part_idx, row_idx))
            count, sums = stats.get(key, (0, None))
            total = points[row_idx : row_idx + 1].sum(axis=0)
            sums = total if sums is None else sums + total
            stats[key] = (count + 1, sums)
    return stats, rows


def build_world(n_rows=4000, seed=5, parts_per_node=2, n_nodes=3):
    topo = ClusterTopology.single_datacenter(n_nodes)
    store = DistributedStore(topo)
    table = gaussian_mixture_table(
        n_rows, dims=("x0", "x1"), seed=seed, name="data"
    )
    store.put_table(table, partitions_per_node=parts_per_node)
    return store


def tricky_world():
    """Partitions with -0.0, duplicates, NaN coordinates and a zero-row
    piece — the inputs where a naive vectorization drifts bitwise."""
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-5, 5, size=600)
    x1 = rng.uniform(-5, 5, size=600)
    x0[::7] = -0.0
    x0[1::13] = 0.0
    x1[2::11] = x1[1::11][: x1[2::11].shape[0]]  # duplicate coordinates
    x0[5::97] = np.nan
    store = DistributedStore(ClusterTopology.single_datacenter(2))
    store.put_table(
        Table({"x0": x0, "x1": x1}, name="data"), partitions_per_node=3
    )
    return store


def index_inputs(store, index):
    """(per-partition points, cells) exactly as build() computes them."""
    stored = store.table("data")
    points = [p.data.matrix(index.columns) for p in stored.partitions]
    cells = [index._cell_of(pts) for pts in points]
    return points, cells


class TestGroupRowsByCell:
    def test_matches_per_row_setdefault_loop(self):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 4, size=(257, 2))
        keys, segments, group_of = group_rows_by_cell(cells, 4)
        legacy = {}
        for row_idx, key in enumerate(map(tuple, cells)):
            legacy.setdefault(key, []).append(row_idx)
        assert keys == list(legacy)  # same first-appearance order
        for key, seg in zip(keys, segments):
            assert seg.tolist() == legacy[key]
        assert [keys[g] for g in group_of] == list(map(tuple, cells))

    def test_empty_input(self):
        keys, segments, group_of = group_rows_by_cell(
            np.empty((0, 2), dtype=int), 8
        )
        assert keys == [] and segments == [] and group_of.size == 0

    def test_split_rows_by_partition_preserves_runs(self):
        starts = np.array([0, 10, 10, 25], dtype=np.int64)  # empty middle part
        rows = np.array([1, 4, 9, 12, 13, 24], dtype=np.int64)
        out = split_rows_by_partition(rows, starts)
        assert [(p, r.tolist()) for p, r in out] == [
            (0, [1, 4, 9]),
            (2, [2, 3, 14]),
        ]


class TestGridIndexBitwise:
    @pytest.mark.parametrize("world", [build_world, tricky_world])
    def test_ingest_bitwise_equals_legacy_fold(self, world):
        store = world()
        index = DistributedGridIndex(store, "data", ("x0", "x1"), cells_per_dim=6)
        index.build()
        points, cells = index_inputs(store, index)
        stats, rows = legacy_fold(points, cells)
        assert list(index._stats) == list(stats)  # same key insertion order
        for key, (count, sums) in stats.items():
            got = index._stats[key]
            assert got.count == count
            # Bitwise: -0.0 vs 0.0 and NaN payloads must match exactly.
            assert got.sums.tobytes() == np.asarray(sums).tobytes()
        for key, refs in rows.items():
            flat = [
                (part_idx, int(row))
                for part_idx, run in index._rows[key]
                for row in run
            ]
            assert flat == refs

    def test_rows_for_cells_matches_legacy_order(self):
        store = build_world(n_rows=1500, seed=9)
        index = DistributedGridIndex(store, "data", ("x0", "x1"), cells_per_dim=5)
        index.build()
        points, cells = index_inputs(store, index)
        _, rows = legacy_fold(points, cells)
        keys = list(index._stats)[::2]
        legacy_plan = {}
        for key in keys:
            for part_idx, row_idx in rows.get(key, ()):
                legacy_plan.setdefault(part_idx, []).append(row_idx)
        plan = index.rows_for_cells(keys)
        assert set(plan) == set(legacy_plan)
        for part_idx, got in plan.items():
            assert got.tolist() == legacy_plan[part_idx]

    def test_state_bytes_unchanged_by_representation(self):
        store = build_world(n_rows=800, seed=2)
        index = DistributedGridIndex(store, "data", ("x0", "x1"), cells_per_dim=4)
        index.build()
        n_refs = sum(
            int(run.size) for refs in index._rows.values() for _, run in refs
        )
        assert n_refs == store.table("data").n_rows
        assert index.total_state_bytes() == (
            index.coordinator_state_bytes() + n_refs * 12
        )


class TestCanopyDirectoryBitwise:
    def test_directory_equals_legacy_per_row_loop(self):
        store = build_world(n_rows=2500, seed=7)
        cache = SegmentStatsCache(store, "data", ("x0", "x1"), cells_per_dim=8)
        from repro.common.accounting import CostMeter

        cache._build_directory(CostMeter())
        stored = store.table("data")
        legacy = {}
        for part_idx, partition in enumerate(stored.partitions):
            mats = partition.data.matrix(cache.grid_columns)
            scaled = (mats - cache._lows) / cache._span * cache.cells_per_dim
            cells = np.clip(scaled.astype(int), 0, cache.cells_per_dim - 1)
            for row_idx, key in enumerate(map(tuple, cells)):
                legacy.setdefault(key, []).append((part_idx, row_idx))
        assert list(cache._rows) == list(legacy)
        for key, refs in legacy.items():
            flat = [
                (part_idx, int(row))
                for part_idx, run in cache._rows[key]
                for row in run
            ]
            assert flat == refs
        n_refs = sum(len(refs) for refs in legacy.values())
        assert cache.state_bytes() == n_refs * 12  # no stats cached yet
