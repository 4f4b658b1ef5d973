"""Unit tests for repro.ml.linear."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.ml import (
    LinearRegression,
    RidgeRegression,
    polynomial_features,
    r2_score,
)


def make_linear_data(n=100, d=3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    coef = np.arange(1, d + 1, dtype=float)
    y = x @ coef + 2.5 + noise * rng.normal(size=n)
    return x, y, coef


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        x, y, coef = make_linear_data()
        model = LinearRegression().fit(x, y)
        assert np.allclose(model.coef_, coef, atol=1e-8)
        assert model.intercept_ == pytest.approx(2.5, abs=1e-8)

    def test_predict_matches_truth(self):
        x, y, _ = make_linear_data()
        model = LinearRegression().fit(x, y)
        assert r2_score(y, model.predict(x)) == pytest.approx(1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            LinearRegression().predict([[1.0, 2.0]])

    def test_sample_weight_downweights_outlier(self):
        x, y, _ = make_linear_data(n=50, d=1)
        x_bad = np.vstack([x, [[0.0]]])
        y_bad = np.append(y, 1000.0)
        weights = np.append(np.ones(50), 1e-9)
        model = LinearRegression().fit(x_bad, y_bad, sample_weight=weights)
        clean = LinearRegression().fit(x, y)
        assert np.allclose(model.coef_, clean.coef_, atol=1e-3)

    def test_mismatched_rows_raises(self):
        with pytest.raises(ConfigurationError):
            LinearRegression().fit(np.zeros((5, 2)), np.zeros(4))

    def test_n_params_counts_intercept(self):
        x, y, _ = make_linear_data(d=4)
        model = LinearRegression().fit(x, y)
        assert model.n_params == 5

    def test_single_feature_1d_input_promoted(self):
        model = LinearRegression().fit([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        pred = model.predict([[4.0]])
        assert pred[0] == pytest.approx(8.0)


class TestRidgeRegression:
    def test_zero_alpha_matches_ols(self):
        x, y, _ = make_linear_data(noise=0.1, seed=3)
        ols = LinearRegression().fit(x, y)
        ridge = RidgeRegression(alpha=0.0).fit(x, y)
        assert np.allclose(ridge.coef_, ols.coef_, atol=1e-6)

    def test_large_alpha_shrinks_coefficients(self):
        x, y, _ = make_linear_data(seed=4)
        small = RidgeRegression(alpha=0.01).fit(x, y)
        large = RidgeRegression(alpha=1e6).fit(x, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_) / 10

    def test_intercept_not_penalised(self):
        # Constant-shifted targets must shift the intercept, not the slopes.
        x, y, _ = make_linear_data(seed=5)
        base = RidgeRegression(alpha=10.0).fit(x, y)
        shifted = RidgeRegression(alpha=10.0).fit(x, y + 100.0)
        assert np.allclose(base.coef_, shifted.coef_, atol=1e-8)
        assert shifted.intercept_ - base.intercept_ == pytest.approx(100.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            RidgeRegression(alpha=-1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            RidgeRegression().predict([[0.0]])

    def test_sample_weights_respected(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 1e-9])
        model = RidgeRegression(alpha=1e-9).fit(x, y, sample_weight=w)
        assert model.predict([[4.0]])[0] == pytest.approx(4.0, abs=1e-3)

    @given(
        st.integers(min_value=5, max_value=40),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_prediction_is_finite_for_random_data(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = RidgeRegression(alpha=1.0).fit(x, y)
        assert np.all(np.isfinite(model.predict(x)))


class TestPolynomialFeatures:
    def test_degree_two_with_interactions(self):
        x = np.array([[2.0, 3.0]])
        out = polynomial_features(x, degree=2, interaction=True)
        assert out.tolist() == [[2.0, 3.0, 4.0, 9.0, 6.0]]

    def test_degree_two_without_interactions(self):
        x = np.array([[2.0, 3.0]])
        out = polynomial_features(x, degree=2, interaction=False)
        assert out.tolist() == [[2.0, 3.0, 4.0, 9.0]]

    def test_degree_one_is_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(polynomial_features(x, degree=1), x)

    def test_degree_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            polynomial_features(np.ones((2, 2)), degree=0)

    def test_quadratic_fit_captures_curvature(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(200, 1))
        y = 3 * x[:, 0] ** 2 - x[:, 0] + 1
        model = LinearRegression().fit(polynomial_features(x, 2), y)
        pred = model.predict(polynomial_features(x, 2))
        assert r2_score(y, pred) > 0.999


def nested_loop_features(x, degree=2, interaction=True):
    """``polynomial_features`` as it was: pair columns from ``i < j`` loops."""
    x = np.asarray(x, dtype=float)
    columns = [x]
    for power in range(2, degree + 1):
        columns.append(x**power)
    if interaction and x.shape[1] > 1 and degree >= 2:
        n = x.shape[1]
        pairs = [x[:, i] * x[:, j] for i in range(n) for j in range(i + 1, n)]
        columns.append(np.stack(pairs, axis=1))
    return np.hstack(columns)


# Magnitudes 1e-6 ... 1e6, either sign: cubes stay finite, squares of the
# small end are still normal numbers.
_magnitudes = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.integers(-6, 5),
    st.floats(1.0, 10.0, allow_nan=False),
)


class TestPolynomialFeaturesAgainstNestedLoops:
    @given(
        st.integers(1, 5).flatmap(
            lambda rows: st.integers(1, 8).flatmap(
                lambda cols: st.lists(
                    st.lists(_magnitudes, min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
        ),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal(self, rows, degree, interaction, with_nan):
        x = np.array(rows)
        if with_nan:
            x[-1, 0] = np.nan
        ours = polynomial_features(x, degree=degree, interaction=interaction)
        theirs = nested_loop_features(x, degree, interaction)
        assert ours.shape == theirs.shape
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
        assert ours.flags.c_contiguous and ours.flags.writeable

    def test_every_shape_in_the_grid(self):
        rng = np.random.default_rng(5)
        for rows in range(1, 6):
            for cols in range(1, 9):
                x = rng.uniform(-1, 1, size=(rows, cols)) * 10.0 ** rng.integers(
                    -6, 7, size=(rows, cols)
                )
                for degree in (1, 2, 3):
                    for interaction in (True, False):
                        assert polynomial_features(
                            x, degree, interaction
                        ).tobytes() == nested_loop_features(
                            x, degree, interaction
                        ).tobytes()

    def test_one_row_of_a_batch_equals_that_row_alone(self):
        x = np.random.default_rng(6).normal(scale=50.0, size=(512, 4))
        batch = polynomial_features(x, 2)
        assert batch.shape == (512, 4 + 4 + 6)
        for i in (0, 17, 511):
            assert batch[i].tobytes() == polynomial_features(x[i], 2).tobytes()

    def test_pair_index_memo_is_shared_read_only_and_module_level(self):
        from repro.ml import linear

        left, right = linear._pair_columns(4)
        assert left.tolist() == [0, 0, 0, 1, 1, 2]
        assert right.tolist() == [1, 2, 3, 2, 3, 3]
        assert linear._pair_columns(4)[0] is left
        for index in (left, right):
            with pytest.raises(ValueError):
                index[0] = 3
        # A fitted model carries coefficients, never the index memo.
        model = RidgeRegression().fit(
            polynomial_features(np.random.default_rng(7).normal(size=(20, 4))),
            np.arange(20.0),
        )
        assert sorted(pickle.loads(pickle.dumps(model)).__dict__) == [
            "alpha", "coef_", "intercept_",
        ]
