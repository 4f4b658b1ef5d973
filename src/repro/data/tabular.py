"""In-memory columnar tables.

:class:`Table` is the base-data representation used throughout the
simulator: a named set of equally long numpy columns.  It supports the
minimum relational algebra the experiments need (mask selection,
projection, slicing, vertical stacking) and knows its serialized size so
the cost model can charge scans and transfers in bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError, QueryError
from repro.common.validation import require

_BYTES_PER_VALUE = 8  # float64 / int64 storage

# Spare rows an append buffer is allocated with, as a share of the rows
# it holds: each reallocation buys 1/_APPEND_SLACK_DIVISOR more appended
# rows, so n appended rows cost O(n) copying in total.
_APPEND_SLACK_DIVISOR = 4


class _AppendBuffer:
    """Capacity-padded column arrays shared by a chain of appended tables.

    ``used`` is the length of the longest table handed out over these
    arrays — the *tail*.  Rows below ``used`` are never rewritten; rows
    at or above it belong to nobody yet.  ``agreed`` is the buffer of
    the last piece source whose schema and dtypes matched these arrays:
    every table over one buffer has that buffer's layout, so the match
    is decided once per pair of buffers, not per append.
    """

    __slots__ = ("arrays", "capacity", "used", "agreed")

    def __init__(self, arrays: Dict[str, np.ndarray], capacity: int, used: int):
        self.arrays = arrays
        self.capacity = capacity
        self.used = used
        self.agreed: Optional[_AppendBuffer] = None


def _nondecreasing(col: np.ndarray) -> bool:
    """True iff ``col`` never steps down and holds no NaN.

    A NaN fails every comparison, its own included, so one anywhere
    fails a neighbour test (or, alone in the column, the self test).
    """
    return bool((col[1:] >= col[:-1]).all()) and (
        col.shape[0] == 0 or bool(col[0] == col[0])
    )


class Table:
    """A named collection of equally long numpy columns.

    ``value_bytes`` sets the *serialized* width of one value for the cost
    model (default 8, the in-memory float64 width).  Real analytical
    records often carry wide payloads (strings, arrays) alongside the few
    numeric columns a query touches; a larger ``value_bytes`` models such
    tables without materialising the payload bytes in RAM.
    """

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        name: str = "table",
        value_bytes: int = _BYTES_PER_VALUE,
    ) -> None:
        require(len(columns) >= 1, "a table needs at least one column")
        require(value_bytes >= 1, "value_bytes must be >= 1")
        self.value_bytes = value_bytes
        arrays = {key: np.asarray(value) for key, value in columns.items()}
        lengths = {arr.shape[0] for arr in arrays.values()}
        require(
            len(lengths) == 1,
            f"all columns must have equal length, got lengths {sorted(lengths)}",
        )
        for key, arr in arrays.items():
            require(arr.ndim == 1, f"column {key!r} must be 1-dimensional")
            # Columns are immutable after construction (the zero-copy
            # paths — column()/engine kernels — hand out these arrays
            # directly), so store read-only views: an engine that tries
            # to mutate partition data in place fails loudly instead of
            # silently corrupting every later query.  Callers keep their
            # own writable reference to the original buffer.
            view = arr.view()
            view.flags.writeable = False
            arrays[key] = view
        self.name = name
        self._columns = arrays
        # Columns never change after construction, so the shape-derived
        # sizes are fixed; the cost model queries them on every charge.
        self._n_rows = lengths.pop()
        self._n_columns = len(arrays)
        self._buffer: Optional[_AppendBuffer] = None
        # Answers :meth:`is_sorted` has given (or inherited), by column.
        self._sorted: Dict[str, bool] = {}

    @classmethod
    def from_arrays(
        cls,
        columns: Dict[str, np.ndarray],
        name: str = "table",
        value_bytes: int = _BYTES_PER_VALUE,
    ) -> "Table":
        """Trusted zero-validation construction from equal-length 1-D arrays.

        Internal fast path for hot materialization loops (the columnar
        store builds thousands of small tables per batched wave, where
        ``__init__``'s validation dominates).  Callers must hand over
        fresh arrays they will not touch again — they are marked
        read-only in place rather than defensively re-viewed.
        """
        self = cls.__new__(cls)
        self.value_bytes = value_bytes
        self.name = name
        n_rows = 0
        for arr in columns.values():
            arr.flags.writeable = False
            n_rows = arr.shape[0]
        self._columns = columns
        self._n_rows = n_rows
        self._n_columns = len(columns)
        self._buffer = None
        self._sorted = {}
        return self

    # Basic properties ----------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return self._n_columns

    @property
    def n_bytes(self) -> int:
        """Serialized size used by the cost model."""
        return self.n_rows * self.n_columns * self.value_bytes

    @property
    def row_bytes(self) -> int:
        return self.n_columns * self.value_bytes

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise QueryError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def is_sorted(self, name: str) -> bool:
        """True iff column ``name`` is non-decreasing and NaN-free.

        One vectorised pass the first time it is asked, then remembered
        (columns are immutable).  :meth:`select`, :meth:`slice_rows` and
        :meth:`appended` keep the rows' order, so their result inherits
        what this table knows instead of asking again: a sub-sequence of
        a sorted column is sorted, and a column grown at its tail stays
        sorted iff the new rows are and start at or above the old last
        value (unsorted stays unsorted).
        """
        known = self._sorted.get(name)
        if known is None:
            known = self._sorted[name] = _nondecreasing(self.column(name))
        return known

    def _sorted_columns(self) -> Dict[str, bool]:
        """What a sub-sequence of these rows inherits: the sorted columns
        (a piece of an unsorted one may be either, so it asks afresh).
        Copied first: a reader may be adding its own answer meanwhile."""
        if not self._sorted:  # the write path's pieces know nothing yet
            return {}
        return {c: True for c, known in self._sorted.copy().items() if known}

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.n_rows}, "
            f"columns={self.column_names})"
        )

    # Relational operations -------------------------------------------------
    def matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack the named columns into an (n_rows, k) float matrix.

        Columns already stored as float64 feed ``column_stack`` directly —
        the stack itself copies, so the per-column ``astype`` would be a
        second, redundant copy on this hot path (radius/kNN masks,
        predictor featurization).
        """
        names = list(columns) if columns is not None else self.column_names
        parts = []
        for c in names:
            arr = self.column(c)
            if arr.dtype != np.float64:
                arr = arr.astype(float)
            parts.append(arr)
        return np.column_stack(parts)

    def select(self, mask: np.ndarray) -> "Table":
        """Rows where ``mask`` is true, as a new table."""
        mask = np.asarray(mask)
        require(
            mask.shape == (self.n_rows,),
            f"mask shape {mask.shape} does not match {self.n_rows} rows",
        )
        out = Table(
            {key: arr[mask] for key, arr in self._columns.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )
        out._sorted = self._sorted_columns()
        return out

    def take(self, indices) -> "Table":
        """Rows at the given integer positions, as a new table."""
        idx = np.asarray(indices, dtype=int)
        return Table(
            {key: arr[idx] for key, arr in self._columns.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )

    def project(self, columns: Sequence[str]) -> "Table":
        """Keep only the named columns."""
        return Table(
            {c: self.column(c) for c in columns},
            name=self.name,
            value_bytes=self.value_bytes,
        )

    def slice_rows(self, start: int, stop: int) -> "Table":
        """Rows in [start, stop), as a new table."""
        # Slices of validated columns need no re-validation, and each
        # ``arr[start:stop]`` is a fresh view from_arrays may mark.
        out = Table.from_arrays(
            {key: arr[start:stop] for key, arr in self._columns.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )
        out._sorted = self._sorted_columns()
        return out

    def with_column(self, name: str, values) -> "Table":
        """Copy of this table with one column added or replaced."""
        arr = np.asarray(values)
        require(
            arr.shape == (self.n_rows,),
            f"new column length {arr.shape} does not match {self.n_rows} rows",
        )
        columns = dict(self._columns)
        columns[name] = arr
        return Table(columns, name=self.name, value_bytes=self.value_bytes)

    @staticmethod
    def concat(tables: Iterable["Table"], name: Optional[str] = None) -> "Table":
        """Vertically stack tables with identical schemas."""
        parts = list(tables)
        require(len(parts) >= 1, "concat needs at least one table")
        schema = parts[0].column_names
        for t in parts[1:]:
            require(
                t.column_names == schema,
                f"schema mismatch: {t.column_names} vs {schema}",
            )
        return Table(
            {c: np.concatenate([t.column(c) for t in parts]) for c in schema},
            name=name if name is not None else parts[0].name,
            value_bytes=parts[0].value_bytes,
        )

    def appended(
        self, piece: "Table", start: int = 0, stop: Optional[int] = None
    ) -> "Table":
        """``concat([self, piece.slice_rows(start, stop)])``, element for
        element, in amortised O(rows added); by default all of ``piece``.

        The result sits in a capacity-padded buffer.  When ``self`` is
        that buffer's *tail* (the longest table handed out over it) and
        the spare capacity holds the new rows, they are written past
        ``self`` in place and the result shares every earlier row with
        it; otherwise both are copied into a fresh buffer (the Go-slice
        rule).  A table that is not the tail is never written past, and
        rows already handed out are never rewritten, so columns stay
        immutable for every holder: two appends from one parent do not
        see each other's rows.

        Assumes one appending thread per buffer (readers of tables
        handed out earlier need no coordination).  Pieces whose dtypes
        differ from this table's fall back to :meth:`concat`, which
        promotes.
        """
        columns = self._columns
        if stop is None:
            stop = piece._n_rows
        if not 0 <= start <= stop <= piece._n_rows:  # (message built on failure only)
            raise ConfigurationError(
                f"rows [{start}, {stop}) are not a range of {piece._n_rows} rows"
            )
        buffer = self._buffer
        source = piece._buffer
        if (buffer is None or source is None or buffer.agreed is not source) and (
            piece.column_names != self.column_names
            or any(piece._columns[c].dtype != arr.dtype for c, arr in columns.items())
        ):
            return Table.concat([self, piece.slice_rows(start, stop)])
        n_rows = self._n_rows
        total = n_rows + stop - start
        if buffer is None or buffer.used != n_rows or buffer.capacity < total:
            capacity = total + total // _APPEND_SLACK_DIVISOR
            arrays = {}
            for c, arr in columns.items():
                arrays[c] = grown = np.empty(capacity, dtype=arr.dtype)
                grown[:n_rows] = arr
            buffer = _AppendBuffer(arrays, capacity, n_rows)
        whole = total - n_rows == piece._n_rows  # the write path: no slices
        for c, arr in buffer.arrays.items():
            new = piece._columns[c]
            arr[n_rows:total] = new if whole else new[start:stop]
        buffer.used = total
        buffer.agreed = source
        out = Table.from_arrays(
            {c: arr[:total] for c, arr in buffer.arrays.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )
        out._buffer = buffer
        # The old last row and the new ones decide it: no parent rescan.
        if self._sorted:
            seam = max(n_rows - 1, 0)
            for c, known in self._sorted.copy().items():
                out._sorted[c] = known and _nondecreasing(out._columns[c][seam:])
        return out

    # I/O -----------------------------------------------------------------
    def to_csv(self, path: str, float_format: str = "%.10g") -> None:
        """Write the table as a header-first CSV file."""
        matrix = np.column_stack(
            [np.asarray(self._columns[c], dtype=float) for c in self.column_names]
        )
        np.savetxt(
            path,
            matrix,
            delimiter=",",
            header=",".join(self.column_names),
            comments="",
            fmt=float_format,
        )

    @classmethod
    def from_csv(
        cls, path: str, name: Optional[str] = None, value_bytes: int = _BYTES_PER_VALUE
    ) -> "Table":
        """Read a header-first numeric CSV file written by :meth:`to_csv`
        (or any numeric CSV with a header row)."""
        with open(path) as handle:
            header = handle.readline().strip()
        require(header, f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        require(
            data.shape[1] == len(names),
            f"{path}: {data.shape[1]} data columns vs {len(names)} headers",
        )
        columns = {c: data[:, i] for i, c in enumerate(names)}
        table_name = name if name is not None else path.rsplit("/", 1)[-1]
        return cls(columns, name=table_name, value_bytes=value_bytes)

    def split(self, n_parts: int) -> List["Table"]:
        """Split into ``n_parts`` contiguous row ranges (sizes differ by <=1)."""
        require(n_parts >= 1, "n_parts must be >= 1")
        bounds = np.linspace(0, self.n_rows, n_parts + 1).astype(int).tolist()
        return [self.slice_rows(bounds[i], bounds[i + 1]) for i in range(n_parts)]
