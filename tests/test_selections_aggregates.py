"""Unit + property tests for repro.queries selections and aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.data import Table, uniform_table
from repro.queries import (
    AnalyticsQuery,
    Correlation,
    Count,
    KNNSelection,
    Mean,
    Median,
    Quantile,
    RadiusSelection,
    RangeSelection,
    RegressionCoefficients,
    Std,
    Sum,
)
from repro.queries.selections import batch_masks


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    return Table(
        {
            "x0": rng.uniform(0, 100, 1000),
            "x1": rng.uniform(0, 100, 1000),
            "value": rng.normal(size=1000),
        },
        name="t",
    )


class TestRangeSelection:
    def test_mask_matches_manual(self, table):
        sel = RangeSelection(("x0", "x1"), [10, 20], [40, 60])
        mask = sel.mask(table)
        manual = (
            (table["x0"] >= 10)
            & (table["x0"] <= 40)
            & (table["x1"] >= 20)
            & (table["x1"] <= 60)
        )
        assert np.array_equal(mask, manual)

    def test_around_roundtrip(self):
        sel = RangeSelection.around(("a", "b"), [5.0, 10.0], [1.0, 2.0])
        assert sel.lows.tolist() == [4.0, 8.0]
        assert sel.highs.tolist() == [6.0, 12.0]
        assert np.allclose(sel.center, [5.0, 10.0])
        assert np.allclose(sel.half_widths, [1.0, 2.0])

    def test_vector_encoding(self):
        sel = RangeSelection(("a",), [0.0], [10.0])
        assert sel.vector().tolist() == [5.0, 5.0]

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            RangeSelection(("a",), [5.0], [4.0])

    def test_volume(self):
        sel = RangeSelection(("a", "b"), [0, 0], [2, 3])
        assert sel.volume() == pytest.approx(6.0)

    def test_bounding_box_is_self(self):
        sel = RangeSelection(("a",), [1.0], [2.0])
        lo, hi = sel.bounding_box()
        assert lo.tolist() == [1.0] and hi.tolist() == [2.0]


class TestRadiusSelection:
    def test_mask_matches_manual(self, table):
        sel = RadiusSelection(("x0", "x1"), [50, 50], 10.0)
        mask = sel.mask(table)
        diff = table.matrix(("x0", "x1")) - [50, 50]
        manual = np.einsum("ij,ij->i", diff, diff) <= 100.0
        assert np.array_equal(mask, manual)

    def test_zero_radius_selects_exact_points_only(self, table):
        point = [table["x0"][0], table["x1"][0]]
        sel = RadiusSelection(("x0", "x1"), point, 0.0)
        assert sel.mask(table)[0]

    def test_vector_encoding(self):
        sel = RadiusSelection(("a", "b"), [1.0, 2.0], 3.0)
        assert sel.vector().tolist() == [1.0, 2.0, 3.0]

    def test_negative_radius_rejected(self):
        with pytest.raises(Exception):
            RadiusSelection(("a",), [0.0], -1.0)

    def test_bounding_box_encloses_sphere(self):
        sel = RadiusSelection(("a", "b"), [5.0, 5.0], 2.0)
        lo, hi = sel.bounding_box()
        assert lo.tolist() == [3.0, 3.0] and hi.tolist() == [7.0, 7.0]


class TestKNNSelection:
    def test_selects_exactly_k(self, table):
        sel = KNNSelection(("x0", "x1"), [50, 50], 7)
        assert sel.mask(table).sum() == 7

    def test_selected_are_the_nearest(self, table):
        sel = KNNSelection(("x0", "x1"), [50, 50], 5)
        mask = sel.mask(table)
        diff = table.matrix(("x0", "x1")) - [50, 50]
        dist = np.einsum("ij,ij->i", diff, diff)
        assert set(np.flatnonzero(mask)) == set(np.argsort(dist)[:5])

    def test_k_exceeding_rows_selects_all(self):
        t = Table({"a": np.arange(3.0)})
        sel = KNNSelection(("a",), [0.0], 10)
        assert sel.mask(t).sum() == 3


class TestAggregates:
    def test_count(self, table):
        assert Count().compute(table) == 1000.0

    def test_sum_mean_std_match_numpy(self, table):
        assert Sum("value").compute(table) == pytest.approx(table["value"].sum())
        assert Mean("value").compute(table) == pytest.approx(table["value"].mean())
        assert Std("value").compute(table) == pytest.approx(table["value"].std())

    def test_median_quantile_match_numpy(self, table):
        assert Median("value").compute(table) == pytest.approx(
            np.median(table["value"])
        )
        assert Quantile("value", 0.25).compute(table) == pytest.approx(
            np.quantile(table["value"], 0.25)
        )

    def test_empty_table_neutral_values(self):
        empty = Table({"v": np.empty(0)})
        assert Count().compute(empty) == 0.0
        assert Sum("v").compute(empty) == 0.0
        assert Mean("v").compute(empty) == 0.0
        assert Median("v").compute(empty) == 0.0

    def test_correlation_of_linear_columns_is_one(self):
        t = Table({"a": np.arange(100.0), "b": np.arange(100.0) * 3 + 1})
        assert Correlation("a", "b").compute(t) == pytest.approx(1.0)

    def test_correlation_degenerate_returns_zero(self):
        t = Table({"a": np.ones(10), "b": np.arange(10.0)})
        assert Correlation("a", "b").compute(t) == 0.0
        tiny = Table({"a": np.array([1.0]), "b": np.array([2.0])})
        assert Correlation("a", "b").compute(tiny) == 0.0

    def test_regression_recovers_coefficients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 2))
        y = 1.5 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
        t = Table({"f0": x[:, 0], "f1": x[:, 1], "y": y})
        coef = RegressionCoefficients("y", ["f0", "f1"]).compute(t)
        assert np.allclose(coef, [1.5, 2.0, -3.0], atol=1e-8)

    def test_regression_underdetermined_returns_zeros(self):
        t = Table({"f0": np.array([1.0]), "y": np.array([2.0])})
        coef = RegressionCoefficients("y", ["f0"]).compute(t)
        assert np.allclose(coef, 0.0)

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(Exception):
            Quantile("v", 1.5)

    @pytest.mark.parametrize(
        "aggregate",
        [
            Count(),
            Sum("value"),
            Mean("value"),
            Std("value"),
            Median("value"),
            Quantile("value", 0.9),
            Correlation("x0", "value"),
        ],
    )
    def test_partial_merge_equals_compute(self, table, aggregate):
        """Distributed partial/merge must agree with centralized compute."""
        parts = table.split(7)
        merged = aggregate.merge([aggregate.partial(p) for p in parts])
        assert merged == pytest.approx(aggregate.compute(table))

    @given(st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_regression_partials_merge_property(self, n_parts):
        rng = np.random.default_rng(n_parts)
        t = Table(
            {
                "f": rng.normal(size=200),
                "y": rng.normal(size=200),
            }
        )
        agg = RegressionCoefficients("y", ["f"])
        merged = agg.merge([agg.partial(p) for p in t.split(n_parts)])
        assert np.allclose(merged, agg.compute(t), atol=1e-6)


class TestAnalyticsQuery:
    def test_evaluate_equals_manual(self, table):
        q = AnalyticsQuery(
            "t", RangeSelection(("x0",), [0.0], [50.0]), Count()
        )
        assert q.evaluate(table) == float((table["x0"] <= 50.0).sum())

    def test_signature_distinguishes_aggregates(self, table):
        sel = RangeSelection(("x0",), [0.0], [50.0])
        a = AnalyticsQuery("t", sel, Count())
        b = AnalyticsQuery("t", sel, Mean("value"))
        assert a.signature() != b.signature()

    def test_vector_is_selection_vector(self):
        sel = RadiusSelection(("a",), [1.0], 2.0)
        q = AnalyticsQuery("t", sel, Count())
        assert np.array_equal(q.vector(), sel.vector())

    def test_answer_dim(self):
        sel = RangeSelection(("x0",), [0.0], [1.0])
        assert AnalyticsQuery("t", sel, Count()).answer_dim == 1
        assert (
            AnalyticsQuery(
                "t", sel, RegressionCoefficients("value", ["x0"])
            ).answer_dim
            == 2
        )


class TestMinMaxVariance:
    def test_min_max_match_numpy(self, table):
        from repro.queries import Max, Min, Variance

        assert Min("value").compute(table) == pytest.approx(table["value"].min())
        assert Max("value").compute(table) == pytest.approx(table["value"].max())
        assert Variance("value").compute(table) == pytest.approx(
            table["value"].var()
        )

    def test_empty_identities(self):
        from repro.queries import Max, Min, Variance

        empty = Table({"v": np.empty(0)})
        assert Min("v").compute(empty) == float("inf")
        assert Max("v").compute(empty) == float("-inf")
        assert Variance("v").compute(empty) == 0.0

    @pytest.mark.parametrize("parts", [1, 3, 8])
    def test_partial_merge_equals_compute(self, table, parts):
        from repro.queries import Max, Min, Variance

        for aggregate in (Min("value"), Max("value"), Variance("value")):
            merged = aggregate.merge(
                [aggregate.partial(p) for p in table.split(parts)]
            )
            assert merged == pytest.approx(aggregate.compute(table))


class TestZoomSession:
    def test_zoom_queries_shrink_and_overlap(self):
        from repro.data import InterestProfile, WorkloadGenerator

        profile = InterestProfile(
            np.array([[50.0, 50.0]]), hotspot_scale=1.0, extent_range=(8, 10)
        )
        wg = WorkloadGenerator("t", ("a", "b"), profile, seed=0)
        session = wg.zoom_session(depth=5, shrink=0.5)
        assert len(session) == 5
        widths = [float(np.max(q.selection.half_widths)) for q in session]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        # Deep zoom levels stay near the first query's centre.
        first = session[0].selection.center
        last = session[-1].selection.center
        assert np.linalg.norm(last - first) < 20.0

    def test_zoom_radius_kind(self):
        from repro.data import InterestProfile, WorkloadGenerator

        profile = InterestProfile(
            np.array([[50.0, 50.0]]), hotspot_scale=1.0, extent_range=(8, 10)
        )
        wg = WorkloadGenerator("t", ("a", "b"), profile, kind="radius", seed=1)
        session = wg.zoom_session(depth=4, shrink=0.7)
        radii = [q.selection.radius for q in session]
        assert all(b < a for a, b in zip(radii, radii[1:]))

    def test_invalid_zoom_params_rejected(self):
        from repro.common.errors import ConfigurationError
        from repro.data import InterestProfile, WorkloadGenerator

        profile = InterestProfile(np.array([[0.0]]), extent_range=(1, 2))
        wg = WorkloadGenerator("t", ("a",), profile, seed=2)
        with pytest.raises(ConfigurationError):
            wg.zoom_session(depth=0)
        with pytest.raises(ConfigurationError):
            wg.zoom_session(shrink=1.5)


class TestSelectionEdges:
    def _table(self, n):
        rng = np.random.default_rng(0)
        return Table(
            {"x0": rng.normal(size=n), "x1": rng.normal(size=n)}, name="t"
        )

    def test_knn_k_at_least_n_rows_selects_everything(self):
        table = self._table(5)
        for k in (5, 6, 100):
            mask = KNNSelection(("x0", "x1"), [0.0, 0.0], k).mask(table)
            assert mask.dtype == bool and mask.all() and mask.shape == (5,)

    def test_knn_zero_row_partition(self):
        table = self._table(0)
        mask = KNNSelection(("x0", "x1"), [0.0, 0.0], 3).mask(table)
        assert mask.shape == (0,) and mask.dtype == bool

    def test_knn_normal_case_still_exact(self):
        table = self._table(50)
        selection = KNNSelection(("x0", "x1"), [0.2, -0.1], 7)
        mask = selection.mask(table)
        assert int(mask.sum()) == 7
        points = table.matrix(("x0", "x1"))
        dist = ((points - np.asarray([0.2, -0.1])) ** 2).sum(axis=1)
        assert dist[mask].max() <= dist[~mask].min()

    def test_batch_masks_empty_selection_list(self):
        assert batch_masks([], self._table(10)) == []

    def test_batch_masks_zero_row_table(self):
        table = self._table(0)
        selections = [
            RangeSelection(("x0", "x1"), [-1, -1], [1, 1]),
            RangeSelection(("x0", "x1"), [0, 0], [2, 2]),
        ]
        masks = batch_masks(selections, table)
        assert len(masks) == 2
        for mask, selection in zip(masks, selections):
            assert mask.shape == (0,)
            assert np.array_equal(mask, selection.mask(table))

    def test_batch_masks_with_knn_over_zero_rows(self):
        table = self._table(0)
        masks = batch_masks(
            [KNNSelection(("x0", "x1"), [0.0, 0.0], 2)], table
        )
        assert masks[0].shape == (0,)
