"""Linear models: ordinary least squares and ridge regression.

These are the workhorse "answer-space models" (RT1.2): per query-quantum the
SEA agent fits a small linear (or low-degree polynomial) model mapping query
parameters to the answer.  Solved via ``numpy.linalg.lstsq`` /
Cholesky-free normal equations with regularisation, which is numerically
adequate at the model sizes used here (tens of features).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.common.errors import NotTrainedError
from repro.common.validation import require, require_matrix


def _row_stable_matvec(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``x @ coef`` with each row's result independent of the batch size.

    BLAS matvec kernels may pick different accumulation orders depending on
    the number of rows, so ``(X @ c)[i]`` is not always bitwise equal to
    ``X[i:i+1] @ c``.  Batched serving promises byte-identical answers to
    the sequential path, so predictions go through einsum, whose per-row
    accumulation depends only on the feature count.
    """
    return np.einsum("ij,j->i", x, coef)


@lru_cache(maxsize=64)
def _pair_columns(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Column indices ``(i, j)``, ``i < j``, in nested-loop order; shared."""
    left, right = np.triu_indices(n, 1)
    left.flags.writeable = right.flags.writeable = False
    return left, right


def polynomial_features(x, degree: int = 2, interaction: bool = True) -> np.ndarray:
    """Expand features with powers (and optionally pairwise interactions).

    For degree 2 and input columns (a, b) the output columns are
    (a, b, a^2, b^2[, a*b]).  The bias column is *not* added here — the
    linear models manage their own intercepts.
    """
    x = require_matrix(x, "x")
    require(degree >= 1, f"degree must be >= 1, got {degree}")
    columns = [x]
    for power in range(2, degree + 1):
        columns.append(x**power)
    if interaction and x.shape[1] > 1 and degree >= 2:
        left, right = _pair_columns(x.shape[1])
        columns.append(x[:, left] * x[:, right])
    return np.concatenate(columns, axis=1)


def centred_moments(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """``(weight sum, x mean, y mean, Xc'Xc, Xc'yc)`` of weighted rows, the
    centred sufficient statistics of a ridge fit; ``y`` may be 2-D."""
    w_sum = w.sum()
    if w_sum <= 0:
        raise ValueError("sample weights must not sum to zero")
    wy = w.reshape((-1,) + (1,) * (y.ndim - 1))
    x_mean = (x * w[:, None]).sum(axis=0) / w_sum
    y_mean = (y * wy).sum(axis=0) / w_sum
    xc = (x - x_mean) * np.sqrt(w)[:, None]
    yc = (y - y_mean) * np.sqrt(wy)
    return w_sum, x_mean, y_mean, xc.T @ xc, xc.T @ yc


class LinearRegression:
    """Ordinary least squares with an intercept.

    ``fit`` accepts per-sample weights, which the maintenance machinery uses
    to age out stale training queries (RT1.4).
    """

    def __init__(self) -> None:
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, x, y, sample_weight=None) -> "LinearRegression":
        x = require_matrix(x, "x")
        y = np.asarray(y, dtype=float).ravel()
        require(x.shape[0] == y.shape[0], "x and y row counts differ")
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        if sample_weight is not None:
            w = np.sqrt(np.asarray(sample_weight, dtype=float).ravel())
            require(w.shape[0] == y.shape[0], "sample_weight length mismatch")
            design = design * w[:, None]
            y = y * w
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.intercept_ = float(solution[0])
        self.coef_ = solution[1:]
        return self

    def predict(self, x) -> np.ndarray:
        if self.coef_ is None:
            raise NotTrainedError("LinearRegression.predict called before fit")
        x = require_matrix(x, "x", n_cols=self.coef_.shape[0])
        return _row_stable_matvec(x, self.coef_) + self.intercept_

    @property
    def n_params(self) -> int:
        """Number of fitted parameters (used for storage-footprint metering)."""
        if self.coef_ is None:
            return 0
        return self.coef_.shape[0] + 1


class RidgeRegression:
    """L2-regularised least squares (intercept not penalised).

    Ridge is the default per-quantum model: quanta can hold very few
    training queries early on, and the regulariser keeps the fit stable
    until more arrive.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        require(alpha >= 0, f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, x, y, sample_weight=None) -> "RidgeRegression":
        x = require_matrix(x, "x")
        y = np.asarray(y, dtype=float).ravel()
        require(x.shape[0] == y.shape[0], "x and y row counts differ")
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=float).ravel()
            require(w.shape[0] == y.shape[0], "sample_weight length mismatch")
        else:
            w = np.ones(y.shape[0])
        return self.solve(*centred_moments(x, y, w)[1:])

    def solve(self, x_mean, y_mean, cxx, cxy) -> "RidgeRegression":
        """Fit from :func:`centred_moments`; the intercept absorbs the
        means, so the penalty applies only to slopes."""
        gram = cxx + self.alpha * np.eye(cxx.shape[0])
        self.coef_ = np.linalg.solve(gram, cxy)
        self.intercept_ = float(y_mean) - float(x_mean @ self.coef_)
        return self

    def predict(self, x) -> np.ndarray:
        if self.coef_ is None:
            raise NotTrainedError("RidgeRegression.predict called before fit")
        x = require_matrix(x, "x", n_cols=self.coef_.shape[0])
        return _row_stable_matvec(x, self.coef_) + self.intercept_

    @property
    def n_params(self) -> int:
        if self.coef_ is None:
            return 0
        return self.coef_.shape[0] + 1
