"""Unit tests for repro.data.generators and repro.data.workload."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.data import (
    InterestProfile,
    WorkloadGenerator,
    gaussian_mixture_table,
    scored_relation,
    table_with_missing,
    train_test_split_queries,
    uniform_table,
)
from repro.queries import Mean, RadiusSelection, RangeSelection


class TestGenerators:
    def test_gaussian_mixture_shape_and_domain(self):
        t = gaussian_mixture_table(1000, dims=("a", "b", "c"), seed=0)
        assert t.n_rows == 1000
        assert set(t.column_names) == {"a", "b", "c", "value"}
        for dim in ("a", "b", "c"):
            assert t[dim].min() >= 0.0 and t[dim].max() <= 100.0
            # Partitions keep their loaded slices until a write rewrites
            # them: a strided column would make every scan of them slow.
            assert t[dim].flags["C_CONTIGUOUS"]

    def test_gaussian_mixture_deterministic(self):
        a = gaussian_mixture_table(100, seed=5)
        b = gaussian_mixture_table(100, seed=5)
        assert np.array_equal(a["x0"], b["x0"])

    def test_gaussian_mixture_is_clustered(self):
        # Compared to uniform, mixture data concentrates: the densest
        # decile cell should hold far more than 1/100 of the points.
        t = gaussian_mixture_table(5000, n_components=3, seed=1)
        hist, _, _ = np.histogram2d(t["x0"], t["x1"], bins=10)
        assert hist.max() > 3 * 5000 / 100

    def test_uniform_table(self):
        t = uniform_table(500, dims=("a",), seed=2, domain=(10.0, 20.0))
        assert t["a"].min() >= 10.0 and t["a"].max() <= 20.0

    def test_uniform_without_value_column(self):
        t = uniform_table(10, value_column=None, seed=0)
        assert "value" not in t.column_names

    def test_scored_relation_selectivity(self):
        t = scored_relation(10000, key_space=100, seed=3)
        assert t["key"].max() < 100
        assert 0.0 <= t["score"].min() and t["score"].max() <= 1.0
        # Expected matches per key ~ n/key_space.
        _, counts = np.unique(t["key"], return_counts=True)
        assert abs(counts.mean() - 100.0) < 10.0

    def test_score_skew_concentrates_low(self):
        skewed = scored_relation(10000, key_space=10, score_skew=4.0, seed=4)
        assert np.median(skewed["score"]) < 0.2

    def test_table_with_missing_rate_and_truth(self):
        base = uniform_table(2000, seed=5)
        t, truth = table_with_missing(base, ["value"], 0.1, seed=6)
        nan_rate = np.isnan(t["value"]).mean()
        assert 0.05 < nan_rate < 0.15
        # Truth preserves the original values.
        assert not np.any(np.isnan(truth["value"]))
        assert np.allclose(
            truth["value"][~np.isnan(t["value"])],
            t["value"][~np.isnan(t["value"])],
        )

    def test_table_with_missing_invalid_rate(self):
        base = uniform_table(10, seed=0)
        with pytest.raises(ConfigurationError):
            table_with_missing(base, ["value"], 1.5)


class TestInterestProfile:
    def test_random_profile_within_domain(self):
        p = InterestProfile.random(5, 2, domain=(0.0, 100.0), seed=0)
        assert p.hotspots.shape == (5, 2)
        assert p.hotspots.min() >= 0.0 and p.hotspots.max() <= 100.0

    def test_from_table_uses_data_points(self):
        t = uniform_table(100, seed=1)
        p = InterestProfile.from_table(t, ("x0", "x1"), 3, seed=2)
        pts = t.matrix(("x0", "x1"))
        for hotspot in p.hotspots:
            assert np.any(np.all(np.isclose(pts, hotspot), axis=1))

    def test_drifted_moves_hotspots(self):
        p = InterestProfile.random(4, 2, seed=3)
        moved = p.drifted(shift=10.0, seed=4)
        assert not np.allclose(moved.hotspots, p.hotspots)
        assert moved.hotspots.shape == p.hotspots.shape

    def test_drifted_replacement(self):
        p = InterestProfile.random(4, 2, seed=5)
        replaced = p.drifted(shift=0.001, seed=6, replace_fraction=0.5)
        jumps = np.linalg.norm(replaced.hotspots - p.hotspots, axis=1)
        assert (jumps > 1.0).sum() >= 1  # some hotspots jumped far

    def test_invalid_extent_range_rejected(self):
        with pytest.raises(ConfigurationError):
            InterestProfile(np.zeros((1, 2)), extent_range=(5.0, 1.0))


class TestWorkloadGenerator:
    def test_range_queries_concentrate_near_hotspots(self):
        profile = InterestProfile(
            np.array([[50.0, 50.0]]), hotspot_scale=1.0, extent_range=(1, 2)
        )
        wg = WorkloadGenerator("t", ("a", "b"), profile, seed=0)
        centers = np.array([q.selection.center for q in wg.batch(200)])
        assert np.all(np.abs(centers - 50.0) < 6.0)

    def test_radius_kind(self):
        profile = InterestProfile.random(2, 2, seed=1)
        wg = WorkloadGenerator("t", ("a", "b"), profile, kind="radius", seed=2)
        q = wg.next_query()
        assert isinstance(q.selection, RadiusSelection)

    def test_default_aggregate_is_count(self):
        profile = InterestProfile.random(1, 1, seed=3)
        wg = WorkloadGenerator("t", ("a",), profile, seed=4)
        assert wg.next_query().aggregate.name == "count"

    def test_custom_aggregate(self):
        profile = InterestProfile.random(1, 1, seed=5)
        wg = WorkloadGenerator("t", ("a",), profile, aggregate=Mean("v"), seed=6)
        assert wg.next_query().aggregate.name.startswith("mean")

    def test_dimension_mismatch_rejected(self):
        profile = InterestProfile.random(1, 2, seed=7)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator("t", ("a",), profile)

    def test_extent_within_configured_range(self):
        profile = InterestProfile.random(1, 2, seed=8, extent_range=(2.0, 3.0))
        wg = WorkloadGenerator("t", ("a", "b"), profile, seed=9)
        for q in wg.batch(50):
            assert np.all(q.selection.half_widths >= 2.0)
            assert np.all(q.selection.half_widths <= 3.0)

    def test_with_profile_switches_hotspots(self):
        p1 = InterestProfile(np.array([[10.0, 10.0]]), hotspot_scale=0.5,
                             extent_range=(1, 2))
        p2 = InterestProfile(np.array([[90.0, 90.0]]), hotspot_scale=0.5,
                             extent_range=(1, 2))
        wg = WorkloadGenerator("t", ("a", "b"), p1, seed=10)
        drifted = wg.with_profile(p2)
        q = drifted.next_query()
        assert np.all(q.selection.center > 80.0)

    def test_stream_is_infinite_iterator(self):
        profile = InterestProfile.random(1, 1, seed=11)
        wg = WorkloadGenerator("t", ("a",), profile, seed=12)
        stream = wg.stream()
        assert next(stream).table_name == "t"


class TestTrainTestSplit:
    def test_split_sizes(self):
        profile = InterestProfile.random(1, 1, seed=13)
        wg = WorkloadGenerator("t", ("a",), profile, seed=14)
        queries = wg.batch(100)
        train, test = train_test_split_queries(queries, 0.7, seed=15)
        assert len(train) == 70 and len(test) == 30
        assert {id(q) for q in train} | {id(q) for q in test} == {
            id(q) for q in queries
        }

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            train_test_split_queries([], 1.5)
