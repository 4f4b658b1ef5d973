"""Analytical operators applied within a selected data subspace.

Sec. III.A asks for both "descriptive statistics (e.g., aggregations) and
dependence (multivariate) statistics (e.g., regressions, correlations)".
Each aggregate maps the selected rows of a table to a scalar (or small
coefficient vector for regression).  Empty selections return the
aggregate's defined neutral value rather than NaN, mirroring SQL.

Aggregates are also *decomposable or not*: decomposable ones (count, sum,
mean, std, correlation, regression via sufficient statistics) can be
computed from per-partition partial states; holistic ones (median,
quantiles) need the values.  Engines use :attr:`Aggregate.decomposable`
and the ``partial``/``merge`` protocol to shuffle only small states for
the former.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.common.validation import require
from repro.data.tabular import Table


class Aggregate:
    """Interface for analytical operators."""

    name: str = "aggregate"
    decomposable: bool = True
    answer_dim: int = 1

    def compute(self, table: Table) -> float:
        """Exact value over all rows of ``table``."""
        raise NotImplementedError

    def partial(self, table: Table) -> Any:
        """Partial state from one partition (decomposable aggregates)."""
        raise NotImplementedError

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> Any:
        """Partial state of the rows of ``table`` at positions ``rows``.

        ``rows`` ascend, so this is always equal to
        ``partial(table.take(rows))``: the same rows in the same order,
        hence the same bits.  The base implementation materialises the
        sub-table; column aggregates override it to gather only the
        columns they read, which is what makes late materialization and
        shared-scan batched execution cheap.
        """
        return self.partial(table.take(rows))

    def partial_from_mask(self, table: Table, mask: np.ndarray) -> Any:
        """Partial state of the masked rows: ``partial(table.select(mask))``.

        Gathered by index because numpy's boolean gather branches per row
        and mispredicts on scattered masks (31 250 float64 rows at 50 %:
        ~120 us against ~30 us; EXPERIMENTS.md E21 has the table).
        """
        return self.partial_from_rows(table, mask.nonzero()[0])

    def merge(self, partials: List[Any]) -> float:
        """Combine partition states into the final value."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class Count(Aggregate):
    """Row count of the subspace — the paper's canonical example [26], [27]."""

    name = "count"

    def compute(self, table: Table) -> float:
        return float(table.n_rows)

    def partial(self, table: Table) -> float:
        return float(table.n_rows)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> float:
        return float(rows.shape[0])

    def partial_from_mask(self, table: Table, mask: np.ndarray) -> float:
        # A mask's cardinality needs no row positions: counting is ~10x
        # cheaper than the ``nonzero`` the base adapter would build.
        return float(np.count_nonzero(mask))

    def merge(self, partials: List[float]) -> float:
        return float(sum(partials))


class _ColumnAggregate(Aggregate):
    def __init__(self, column: str) -> None:
        self.column = column
        self.name = f"{type(self).__name__.lower()}({column})"


class Sum(_ColumnAggregate):
    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(table.column(self.column).sum())

    def partial(self, table: Table) -> float:
        return self.compute(table)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> float:
        col = table.column(self.column)[rows]
        if col.size == 0:
            return 0.0
        return float(col.sum())

    def merge(self, partials: List[float]) -> float:
        return float(sum(partials))


class Mean(_ColumnAggregate):
    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(table.column(self.column).mean())

    def partial(self, table: Table) -> Tuple[float, int]:
        if table.n_rows == 0:
            return (0.0, 0)
        return (float(table.column(self.column).sum()), table.n_rows)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> Tuple[float, int]:
        col = table.column(self.column)[rows]
        if col.size == 0:
            return (0.0, 0)
        return (float(col.sum()), int(col.size))

    def merge(self, partials: List[Tuple[float, int]]) -> float:
        total = sum(p[0] for p in partials)
        count = sum(p[1] for p in partials)
        return float(total / count) if count else 0.0


class Std(_ColumnAggregate):
    """Population standard deviation via (sum, sum-of-squares, count)."""

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(table.column(self.column).std())

    def partial(self, table: Table) -> Tuple[float, float, int]:
        col = table.column(self.column).astype(float)
        return (float(col.sum()), float((col**2).sum()), table.n_rows)

    def partial_from_rows(
        self, table: Table, rows: np.ndarray
    ) -> Tuple[float, float, int]:
        col = table.column(self.column)[rows].astype(float)
        return (float(col.sum()), float((col**2).sum()), int(col.size))

    def merge(self, partials: List[Tuple[float, float, int]]) -> float:
        total = sum(p[0] for p in partials)
        total_sq = sum(p[1] for p in partials)
        count = sum(p[2] for p in partials)
        if count == 0:
            return 0.0
        variance = max(0.0, total_sq / count - (total / count) ** 2)
        return float(np.sqrt(variance))


class Min(_ColumnAggregate):
    """Minimum value; empty subspaces return +inf (the fold identity)."""

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return float("inf")
        return float(table.column(self.column).min())

    def partial(self, table: Table) -> float:
        return self.compute(table)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> float:
        col = table.column(self.column)[rows]
        if col.size == 0:
            return float("inf")
        return float(col.min())

    def merge(self, partials: List[float]) -> float:
        return float(min(partials)) if partials else float("inf")


class Max(_ColumnAggregate):
    """Maximum value; empty subspaces return -inf (the fold identity)."""

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return float("-inf")
        return float(table.column(self.column).max())

    def partial(self, table: Table) -> float:
        return self.compute(table)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> float:
        col = table.column(self.column)[rows]
        if col.size == 0:
            return float("-inf")
        return float(col.max())

    def merge(self, partials: List[float]) -> float:
        return float(max(partials)) if partials else float("-inf")


class Variance(_ColumnAggregate):
    """Population variance via (sum, sum-of-squares, count)."""

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(table.column(self.column).var())

    def partial(self, table: Table) -> Tuple[float, float, int]:
        col = table.column(self.column).astype(float)
        return (float(col.sum()), float((col**2).sum()), table.n_rows)

    def partial_from_rows(
        self, table: Table, rows: np.ndarray
    ) -> Tuple[float, float, int]:
        col = table.column(self.column)[rows].astype(float)
        return (float(col.sum()), float((col**2).sum()), int(col.size))

    def merge(self, partials: List[Tuple[float, float, int]]) -> float:
        total = sum(p[0] for p in partials)
        total_sq = sum(p[1] for p in partials)
        count = sum(p[2] for p in partials)
        if count == 0:
            return 0.0
        return float(max(0.0, total_sq / count - (total / count) ** 2))


class Median(_ColumnAggregate):
    """Holistic: partials are the raw values."""

    decomposable = False

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(np.median(table.column(self.column)))

    def partial(self, table: Table) -> np.ndarray:
        return table.column(self.column).astype(float)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> np.ndarray:
        return table.column(self.column)[rows].astype(float)

    def merge(self, partials: List[np.ndarray]) -> float:
        values = np.concatenate(partials) if partials else np.empty(0)
        return float(np.median(values)) if values.size else 0.0


class Quantile(_ColumnAggregate):
    """Holistic q-quantile, q in [0, 1]."""

    decomposable = False

    def __init__(self, column: str, q: float) -> None:
        super().__init__(column)
        require(0.0 <= q <= 1.0, f"q must be in [0, 1], got {q}")
        self.q = float(q)
        self.name = f"quantile({column}, {q})"

    def compute(self, table: Table) -> float:
        if table.n_rows == 0:
            return 0.0
        return float(np.quantile(table.column(self.column), self.q))

    def partial(self, table: Table) -> np.ndarray:
        return table.column(self.column).astype(float)

    def partial_from_rows(self, table: Table, rows: np.ndarray) -> np.ndarray:
        return table.column(self.column)[rows].astype(float)

    def merge(self, partials: List[np.ndarray]) -> float:
        values = np.concatenate(partials) if partials else np.empty(0)
        return float(np.quantile(values, self.q)) if values.size else 0.0


class Correlation(Aggregate):
    """Pearson correlation between two columns (dependence statistics).

    Decomposable via the five sufficient sums.  Degenerate subspaces
    (fewer than two rows, or zero variance) return 0.0.
    """

    def __init__(self, column_a: str, column_b: str) -> None:
        self.column_a = column_a
        self.column_b = column_b
        self.name = f"corr({column_a}, {column_b})"

    def compute(self, table: Table) -> float:
        return self.merge([self.partial(table)])

    def partial(self, table: Table) -> Tuple[float, float, float, float, float, int]:
        a = table.column(self.column_a).astype(float)
        b = table.column(self.column_b).astype(float)
        return (
            float(a.sum()),
            float(b.sum()),
            float((a * a).sum()),
            float((b * b).sum()),
            float((a * b).sum()),
            table.n_rows,
        )

    def partial_from_rows(
        self, table: Table, rows: np.ndarray
    ) -> Tuple[float, float, float, float, float, int]:
        a = table.column(self.column_a)[rows].astype(float)
        b = table.column(self.column_b)[rows].astype(float)
        return (
            float(a.sum()),
            float(b.sum()),
            float((a * a).sum()),
            float((b * b).sum()),
            float((a * b).sum()),
            int(a.size),
        )

    def merge(self, partials: List[Tuple]) -> float:
        sa = sum(p[0] for p in partials)
        sb = sum(p[1] for p in partials)
        saa = sum(p[2] for p in partials)
        sbb = sum(p[3] for p in partials)
        sab = sum(p[4] for p in partials)
        n = sum(p[5] for p in partials)
        if n < 2:
            return 0.0
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        if var_a <= 0 or var_b <= 0:
            return 0.0
        cov = sab - sa * sb / n
        return float(cov / np.sqrt(var_a * var_b))


class RegressionCoefficients(Aggregate):
    """OLS coefficients of ``target ~ features`` within the subspace.

    The answer is the vector ``(intercept, slope_1 ... slope_d)``, the
    "model coefficients for predictive analytics" functionality of
    Sec. III.A.  Decomposable through the normal-equation sufficient
    statistics X'X and X'y.
    """

    def __init__(self, target: str, features: Sequence[str]) -> None:
        require(len(features) >= 1, "regression needs at least one feature")
        self.target = target
        self.features = tuple(features)
        self.name = f"reg({target} ~ {', '.join(features)})"
        self.answer_dim = len(features) + 1

    def compute(self, table: Table) -> np.ndarray:
        return self.merge([self.partial(table)])

    def partial(self, table: Table) -> Tuple[np.ndarray, np.ndarray, int]:
        if table.n_rows == 0:
            d = len(self.features) + 1
            return (np.zeros((d, d)), np.zeros(d), 0)
        x = table.matrix(self.features)
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        y = table.column(self.target).astype(float)
        return (design.T @ design, design.T @ y, table.n_rows)

    def merge(self, partials: List[Tuple]) -> np.ndarray:
        d = len(self.features) + 1
        xtx = np.zeros((d, d))
        xty = np.zeros(d)
        n = 0
        for px, py, pn in partials:
            xtx += px
            xty += py
            n += pn
        if n <= d:
            return np.zeros(d)
        # Tiny ridge term for numerical stability on near-singular subspaces.
        return np.linalg.solve(xtx + 1e-9 * np.eye(d), xty)
