"""Synthetic data sets.

The paper's motivating domains (earth science, genomics, finance) share
multi-dimensional, multi-modal numeric data.  The generators here produce:

* gaussian-mixture tables — clustered multi-dimensional data, the standard
  stand-in for real sensor/science data with density structure;
* uniform tables — the unstructured worst case;
* scored relations — (key, score) pairs with zipf-skewed scores for the
  rank-join experiments;
* tables with values missing completely at random, for the imputation
  experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import SeedLike, make_rng
from repro.common.validation import require
from repro.data.tabular import Table


def gaussian_mixture_table(
    n_rows: int,
    dims: Sequence[str] = ("x0", "x1"),
    n_components: int = 4,
    value_column: str = "value",
    domain: Tuple[float, float] = (0.0, 100.0),
    spread: float = 6.0,
    seed: SeedLike = None,
    name: str = "data",
    value_bytes: int = 8,
) -> Table:
    """Clustered points in ``domain``^d plus a correlated value column.

    The ``value`` column is a smooth nonlinear function of the coordinates
    with additive noise, so dependence statistics (correlation, regression
    coefficients) vary across subspaces — which is what makes per-quantum
    answer models (RT1.2) non-trivial.
    """
    require(n_rows >= 1, "n_rows must be >= 1")
    require(n_components >= 1, "n_components must be >= 1")
    rng = make_rng(seed)
    d = len(dims)
    lo, hi = domain
    centers = rng.uniform(lo + spread, hi - spread, size=(n_components, d))
    assignment = rng.integers(n_components, size=n_rows)
    points = centers[assignment] + rng.normal(scale=spread, size=(n_rows, d))
    points = np.clip(points, lo, hi)
    # One contiguous array per column: a strided view of ``points`` would
    # be the layout of every partition no write ever rewrites.
    columns: Dict[str, np.ndarray] = {
        dim: np.ascontiguousarray(points[:, j]) for j, dim in enumerate(dims)
    }
    weights = rng.uniform(-1.0, 1.0, size=d)
    scale = (hi - lo) / 4.0
    value = (
        np.sin(points @ weights / scale) * 10.0
        + points @ rng.uniform(0.0, 0.5, size=d)
        + rng.normal(scale=1.0, size=n_rows)
    )
    columns[value_column] = value
    return Table(columns, name=name, value_bytes=value_bytes)


def uniform_table(
    n_rows: int,
    dims: Sequence[str] = ("x0", "x1"),
    value_column: Optional[str] = "value",
    domain: Tuple[float, float] = (0.0, 100.0),
    seed: SeedLike = None,
    name: str = "uniform",
) -> Table:
    """Uniform points; the no-structure baseline data set."""
    require(n_rows >= 1, "n_rows must be >= 1")
    rng = make_rng(seed)
    lo, hi = domain
    columns: Dict[str, np.ndarray] = {
        dim: rng.uniform(lo, hi, size=n_rows) for dim in dims
    }
    if value_column is not None:
        columns[value_column] = rng.normal(size=n_rows)
    return Table(columns, name=name)


def scored_relation(
    n_rows: int,
    key_space: int,
    score_skew: float = 2.0,
    seed: SeedLike = None,
    name: str = "relation",
    value_bytes: int = 8,
) -> Table:
    """A (key, score) relation for rank-join.

    Keys are uniform over ``key_space`` — so the expected number of join
    matches per key is ``n_rows / key_space``, the selectivity knob of the
    crossover experiments.  Scores follow ``uniform**score_skew``: skewed
    toward 0 with a thin high tail, which is what makes sorted-access
    early termination effective (few rows hold the top scores).
    """
    require(n_rows >= 1, "n_rows must be >= 1")
    require(key_space >= 1, "key_space must be >= 1")
    require(score_skew > 0, "score_skew must be positive")
    rng = make_rng(seed)
    keys = rng.integers(key_space, size=n_rows)
    scores = rng.uniform(0.0, 1.0, size=n_rows) ** score_skew
    return Table(
        {"key": keys.astype(np.int64), "score": scores},
        name=name,
        value_bytes=value_bytes,
    )


def table_with_missing(
    base: Table,
    missing_columns: Sequence[str],
    missing_rate: float,
    seed: SeedLike = None,
    sentinel: float = np.nan,
) -> Tuple[Table, Dict[str, np.ndarray]]:
    """Knock out values completely at random; returns (table, truth).

    ``truth`` maps each affected column to the original values of the rows
    that were masked (indexed by the returned table's ``_missing_<col>``
    boolean columns are not added; callers use NaN positions).
    """
    require(0.0 < missing_rate < 1.0, "missing_rate must be in (0, 1)")
    rng = make_rng(seed)
    truth: Dict[str, np.ndarray] = {}
    out = base
    for column in missing_columns:
        values = out.column(column).astype(float).copy()
        mask = rng.uniform(size=values.shape[0]) < missing_rate
        truth[column] = values.copy()
        values[mask] = sentinel
        out = out.with_column(column, values)
    return out, truth
