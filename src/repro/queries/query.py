"""The analytical query object: selection + aggregate.

:class:`AnalyticsQuery` is what analysts submit (Fig. 1/2), what engines
execute, and what the learned stack featurizes: its :meth:`vector` is the
point in "query space" that RT1.1 quantizes.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.data.tabular import Table
from repro.queries.aggregates import Aggregate
from repro.queries.selections import Selection

Answer = Union[float, np.ndarray]
ExtentKey = Tuple[str, str, bytes]


class AnalyticsQuery:
    """One analytical query over one table."""

    def __init__(
        self, table_name: str, selection: Selection, aggregate: Aggregate
    ) -> None:
        self.table_name = table_name
        self.selection = selection
        self.aggregate = aggregate
        # The agent asks for these on every routing / caching decision;
        # all are pure functions of the (immutable-by-convention)
        # selection, so compute once.  Treat the vector as read-only.
        self._vector_cache: Optional[np.ndarray] = None
        self._signature_cache: Optional[str] = None
        self._extent_key_cache: Optional[ExtentKey] = None

    @property
    def answer_dim(self) -> int:
        return self.aggregate.answer_dim

    def vector(self) -> np.ndarray:
        """The query's position in query space (selection features only).

        Queries with different aggregates live in *separate* query spaces —
        the agent keeps one predictor per (table, aggregate) pair — so the
        aggregate is deliberately not encoded here.
        """
        if self._vector_cache is None:
            self._vector_cache = self.selection.vector()
        return self._vector_cache

    def evaluate(self, table: Table) -> Answer:
        """Ground-truth answer on a materialised table."""
        selected = table.select(self.selection.mask(table))
        return self.aggregate.compute(selected)

    def signature(self) -> str:
        """Key identifying which predictor serves this query."""
        if self._signature_cache is None:
            self._signature_cache = (
                f"{self.table_name}:{self.aggregate.name}:{len(self.vector())}"
            )
        return self._signature_cache

    def extent_key(self) -> ExtentKey:
        """Canonical identity: signature + selection shape + extent bytes.

        What the answer cache files a predicted answer under.  The
        selection class name disambiguates selections whose vector
        encodings happen to share a length (a 1-D range and a 1-D radius
        both encode as two floats).
        """
        if self._extent_key_cache is None:
            vector = np.asarray(self.vector(), dtype=float)
            self._extent_key_cache = (
                self.signature(),
                type(self.selection).__name__,
                vector.tobytes(),
            )
        return self._extent_key_cache

    def shell(self) -> "AnalyticsQuery":
        """A distinct query object sharing every part of this one.

        Requests must stay distinct objects (profiles and served records
        are told apart by query identity) while the parsed selection,
        aggregate and memoized vector / signature / key are shared.
        """
        twin = AnalyticsQuery(self.table_name, self.selection, self.aggregate)
        twin._vector_cache = self._vector_cache
        twin._signature_cache = self._signature_cache
        twin._extent_key_cache = self._extent_key_cache
        return twin

    def __repr__(self) -> str:
        return (
            f"Query({self.aggregate!r} over {self.selection!r} "
            f"on {self.table_name!r})"
        )
