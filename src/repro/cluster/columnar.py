"""Columnar compressed partition storage with exact per-column encodings.

Row-major partitions make every scan pay for every column of every row.
This module gives each partition an alternative *columnar* image: one
:class:`EncodedColumn` per column, with the encoding chosen automatically
at ingest/compaction time from cheap column statistics:

* :class:`DictionaryColumn` — low-cardinality columns become a small
  value dictionary plus narrow integer codes;
* :class:`RunLengthColumn` — sorted or constant columns become
  (run value, run length) pairs;
* :class:`BitPackedColumn` — small-domain integer columns become
  offset + ``width``-bit packed codes;
* :class:`RawColumn` — everything else stays a contiguous buffer.

The contract everything downstream relies on is **bitwise round-trip
identity**: ``decode(encode(col))`` reproduces the stored numpy column
bit for bit.  Floating-point columns are therefore keyed by their *bit
patterns* (``col.view(np.uint64)``), never by value comparison — NaNs
(``NaN != NaN``) would split every run and ``-0.0 == 0.0`` would merge
distinct bit patterns, silently breaking the round trip either way.

Encodings carry their serialized footprint (``encoded_bytes``, scaled by
the owning table's ``value_bytes`` for value storage, real widths for
codes and lengths) so the cost model can charge the bytes a columnar
scan actually reads, and support three access paths used by
:mod:`repro.engine.colscan`:

* ``range_mask(lo, hi)`` — evaluate a range predicate on the encoded
  domain (dictionary-domain comparison, run-level comparison, vectorized
  compares on raw buffers);
* ``masked(mask)`` — late materialization: decode only the surviving
  rows (``== decode()[mask]`` bitwise);
* ``take(idx)`` — point-read gather without a full decode.

A raw float64 column also builds, on the first range conjunct that has
to compare it, a :class:`SortedIndex`: the rows in ascending value
order, so a selective range becomes two binary searches and the row
positions between them (:mod:`repro.engine.colscan` drives a scan from
those positions).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryError, StorageError
from repro.common.validation import require
from repro.data.tabular import Table

#: Encoding kind tags (recorded in partition synopses and profiles).
RAW = "raw"
DICTIONARY = "dictionary"
RUN_LENGTH = "rle"
BIT_PACKED = "bitpack"

#: Dictionary encoding is only attempted when a strided sample suggests
#: the cardinality is small; the full pass then confirms it.
_DICT_SAMPLE = 1024
_DICT_MAX_UNIQUE = 4096

#: Serialized width of one run length / bit-pack offset.
_LENGTH_BYTES = 8
_OFFSET_BYTES = 8

#: A :class:`SortedIndex` keeps one fence key per this many sorted rows:
#: 8/64 = 0.125 B a row beside the 2 B (uint16) permutation.  Both bounds
#: of a range then cost 5.5 us on a 31 250-row partition, most of it numpy
#: call overhead: stride 16 spends 0.375 B a row more to save 0.4 us,
#: stride 256 saves 0.09 B a row and costs 1.4 us more (EXPERIMENTS E21).
FENCE_STRIDE = 64


def _bit_keys(values: np.ndarray) -> Optional[np.ndarray]:
    """Integer keys whose equality is bit-pattern equality, or None.

    Floats are reinterpreted as unsigned ints of the same width so NaN
    payloads and signed zeros are distinguished exactly; integer and
    boolean columns are their own keys.  Unsupported dtypes return None
    (such columns stay raw).
    """
    if values.dtype.kind in "iub":
        return values
    if values.dtype.kind == "f" and values.dtype.itemsize in (4, 8):
        uint = np.uint32 if values.dtype.itemsize == 4 else np.uint64
        return np.ascontiguousarray(values).view(uint)
    return None


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def in_range(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``lo <= values <= hi`` compared as ``RangeSelection.mask`` does.

    The kernels hand bounds in as Python floats; against a float16/float32
    array a Python float is cast down to the array's precision (NEP 50),
    while the selection's own float64 bounds widen the array instead.
    Narrow floats therefore get float64 scalars, so every mask is the
    selection's, bit for bit.
    """
    if values.dtype.char in "ef":
        lo, hi = np.float64(lo), np.float64(hi)
    return (values >= lo) & (values <= hi)


class SortedIndex:
    """The rows of one float64 column in ascending value order.

    ``order`` is the column's ``argsort`` (NaN rows last), ``uint16``
    when the column has at most 65 536 rows and ``int32`` above; every
    :data:`FENCE_STRIDE`-th sorted value is kept in ``fences``.  That is
    about 2.1 B a row next to the column's 8 — no sorted copy of the
    values is kept: a bound searches the fences, then the one block of
    :data:`FENCE_STRIDE` values it fell into, gathered through ``order``.

    ``searchsorted`` orders NaN after every number and treats ``-0.0``
    and ``0.0`` as equal, exactly as ``>=``/``<=`` do, so ``side="left"``
    for the low bound and ``"right"`` for the high one reproduce the
    comparison's row set for ties, signed zeros and NaN rows; a NaN bound
    selects nothing, as the comparison says.
    """

    __slots__ = ("order", "fences", "_values")

    def __init__(self, values: np.ndarray) -> None:
        order = np.argsort(values)
        self.order = _readonly(
            order.astype(np.uint16 if values.shape[0] <= 65536 else np.int32)
        )
        self.fences = _readonly(values[order[::FENCE_STRIDE]])
        self._values = values

    def _rank(self, bound: float, side: str) -> int:
        """``searchsorted`` of ``bound`` in the sorted column."""
        block = int(self.fences.searchsorted(bound, side))
        if block == 0:
            return 0
        start = (block - 1) * FENCE_STRIDE
        keys = self._values[self.order[start:start + FENCE_STRIDE]]
        return start + int(keys.searchsorted(bound, side))

    def span(self, lo: float, hi: float) -> Tuple[int, int]:
        """Sorted positions ``[start, stop)`` of the rows in ``[lo, hi]``."""
        if lo != lo or hi != hi:
            return 0, 0
        start = self._rank(lo, "left")
        return start, max(start, self._rank(hi, "right"))


class EncodedColumn:
    """One encoded column of one partition (immutable after build)."""

    kind: str = "encoded"

    #: Number of rows the column decodes to.
    n_rows: int
    #: Serialized footprint charged when this column is scanned.
    encoded_bytes: int
    #: The decoded dtype.
    dtype: np.dtype
    #: Cached :meth:`zone` (columns are immutable after build).
    _zone: Optional[Tuple[float, float]] = None

    def decode(self) -> np.ndarray:
        """The full stored column, bitwise equal to the ingested array."""
        raise NotImplementedError

    def _distinct(self) -> np.ndarray:
        """Some array holding exactly the stored values (any multiplicity)."""
        return self.decode()

    def zone(self) -> Tuple[float, float]:
        """The column's exact ``(min, max)`` — NaN when it holds a NaN row.

        The scan kernels' own zone map: a range conjunct whose bounds
        contain the zone (:func:`repro.cluster.synopsis.zone_within`)
        selects every row and need not be evaluated.  Read off the
        encoded domain (dictionary entries, run values), once.
        """
        zone = self._zone
        if zone is None:
            values = self._distinct()
            if values.shape[0] == 0:
                zone = (float("inf"), float("-inf"))
            else:
                zone = (float(values.min()), float(values.max()))
            self._zone = zone
        return zone

    def masked(self, mask: np.ndarray) -> np.ndarray:
        """Rows where ``mask`` is true — ``decode()[mask]`` bitwise."""
        return self.decode()[mask]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """Rows at integer positions — ``decode()[idx]`` bitwise."""
        return self.decode()[idx]

    def range_mask(self, lo: float, hi: float) -> np.ndarray:
        """Boolean mask of ``lo <= value <= hi`` (NaN rows are False)."""
        return in_range(self.decode(), lo, hi)

    def range_mask_at(self, rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """``range_mask(lo, hi)[rows]`` — raw and dictionary columns
        compare only the values at ``rows``."""
        return self.range_mask(lo, hi).take(rows)

    def batch_range_masks(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """(n_selections, n_rows) range masks sharing one encoded read."""
        v = self.decode()[None, :]
        return (v >= lows[:, None]) & (v <= highs[:, None])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rows={self.n_rows}, "
            f"bytes={self.encoded_bytes})"
        )


class RawColumn(EncodedColumn):
    """Contiguous uncompressed buffer — the fallback encoding."""

    kind = RAW

    #: Cached :meth:`sorted_index` (built on first use, never charged).
    _index: Optional[SortedIndex] = None

    def __init__(self, values: np.ndarray, value_bytes: int) -> None:
        self.values = _readonly(values)
        self.n_rows = int(values.shape[0])
        self.dtype = values.dtype
        self.encoded_bytes = self.n_rows * int(value_bytes)
        self.indexable = bool(values.dtype == np.float64)

    def sorted_index(self) -> SortedIndex:
        """The column's :class:`SortedIndex`, built on the first call.

        Host memory like ``ColumnarPartition._decoded``: neither stored
        nor charged bytes.  Published by one assignment of a finished
        object, so two threads racing on a fresh column may both build
        it, but neither ever reads half of one.  Float64 columns only
        (``indexable``).
        """
        index = self._index
        if index is None:
            index = self._index = SortedIndex(self.values)
        return index

    def decode(self) -> np.ndarray:
        return self.values

    def masked(self, mask: np.ndarray) -> np.ndarray:
        return self.values[mask]

    def take(self, idx: np.ndarray) -> np.ndarray:
        return self.values[idx]

    def range_mask(self, lo: float, hi: float) -> np.ndarray:
        return in_range(self.values, lo, hi)

    def range_mask_at(self, rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
        return in_range(self.values.take(rows), lo, hi)

    def batch_range_masks(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        v = self.values[None, :]
        return (v >= lows[:, None]) & (v <= highs[:, None])


class DictionaryColumn(EncodedColumn):
    """Low-cardinality column: sorted value dictionary + narrow codes.

    The dictionary is numerically ascending with NaN bit patterns last
    (distinct patterns — NaN payloads, -0.0 vs 0.0 — are all kept, so
    decode is bitwise).  The sort order turns a range predicate into a
    *code interval*: two ``searchsorted`` probes on the ``k``-entry
    dictionary, then two comparisons per row on the narrow integer codes
    — never on decoded values, and with ~``itemsize/8`` of the row
    path's memory traffic.  Late materialization gathers
    ``values[codes[mask]]``.
    """

    kind = DICTIONARY

    def __init__(
        self, values: np.ndarray, codes: np.ndarray, value_bytes: int
    ) -> None:
        self.values = _readonly(values)  # distinct patterns, sorted
        self.codes = _readonly(codes)
        self.n_rows = int(codes.shape[0])
        self.dtype = values.dtype
        self._finite = None  # lazy (finite values as list, count) for bisect
        self.encoded_bytes = (
            int(values.shape[0]) * int(value_bytes)
            + self.n_rows * int(codes.dtype.itemsize)
        )

    def decode(self) -> np.ndarray:
        return self.values[self.codes]

    def _distinct(self) -> np.ndarray:
        return self.values

    def masked(self, mask: np.ndarray) -> np.ndarray:
        return self.values[self.codes[mask]]

    def take(self, idx: np.ndarray) -> np.ndarray:
        return self.values[self.codes[idx]]

    def _code_bounds(self, lows, highs):
        """Per-selection closed code intervals, in the codes' dtype.

        ``[lo, hi]`` on values maps to codes in ``[lo_idx, hi_idx - 1]``
        because the dictionary is sorted, probing only the finite prefix
        (NaN entries sort last and can never satisfy a range, and
        ``bisect`` resolves the -0.0/0.0 tie the same way ``>=``/``<=``
        do — they compare equal).  NaN bounds select nothing, exactly
        like the value comparison.  Empty intervals come back as (1, 0).

        Probes run via ``bisect`` on a cached python list: selection
        batches are a handful of bounds against a small dictionary, where
        numpy's per-call overhead costs more than the log(k) compares.
        """
        cached = self._finite
        if cached is None:
            finite = self.values[self.values == self.values]
            cached = self._finite = (finite.tolist(), int(finite.shape[0]))
        values, n_finite = cached
        if isinstance(lows, np.ndarray):  # python floats: bisect compares
            lows = lows.tolist()          # ~10x faster than numpy scalars
        if isinstance(highs, np.ndarray):
            highs = highs.tolist()
        m = len(lows)
        lo_c = np.empty(m, dtype=self.codes.dtype)
        hi_c = np.empty(m, dtype=self.codes.dtype)
        for i in range(m):
            lo = lows[i]
            hi = highs[i]
            if lo != lo or hi != hi:  # NaN bound: empty interval
                lo_c[i] = 1
                hi_c[i] = 0
                continue
            lo_idx = bisect_left(values, lo, 0, n_finite)
            hi_idx = bisect_right(values, hi, 0, n_finite)
            if hi_idx <= lo_idx:
                lo_c[i] = 1
                hi_c[i] = 0
            else:
                lo_c[i] = lo_idx
                hi_c[i] = hi_idx - 1
        return lo_c, hi_c

    def range_mask(self, lo: float, hi: float) -> np.ndarray:
        lo_c, hi_c = self._code_bounds((lo,), (hi,))
        return (self.codes >= lo_c[0]) & (self.codes <= hi_c[0])

    def range_mask_at(self, rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
        lo_c, hi_c = self._code_bounds((lo,), (hi,))
        codes = self.codes.take(rows)
        return (codes >= lo_c[0]) & (codes <= hi_c[0])

    def batch_range_masks(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        lo_c, hi_c = self._code_bounds(lows, highs)
        codes = self.codes[None, :]
        out = np.empty((lo_c.shape[0], self.n_rows), dtype=bool)
        scratch = np.empty_like(out)
        np.greater_equal(codes, lo_c[:, None], out=out)
        np.less_equal(codes, hi_c[:, None], out=scratch)
        out &= scratch
        return out


class RunLengthColumn(EncodedColumn):
    """Sorted/constant column: (run value, run length) pairs.

    Runs are detected on bit patterns, so a run's value reproduces its
    rows bitwise.  Range masks compare once per *run* and expand; masked
    materialization counts survivors per run (``np.add.reduceat``) and
    repeats each run value that many times — no full decode either way.
    """

    kind = RUN_LENGTH

    def __init__(
        self,
        run_values: np.ndarray,
        run_lengths: np.ndarray,
        value_bytes: int,
    ) -> None:
        self.run_values = _readonly(run_values)
        self.run_lengths = _readonly(run_lengths.astype(np.int64))
        self.n_rows = int(run_lengths.sum()) if run_lengths.size else 0
        self.dtype = run_values.dtype
        self.encoded_bytes = int(run_values.shape[0]) * (
            int(value_bytes) + _LENGTH_BYTES
        )
        # Derived run starts (not part of the serialized footprint).
        starts = np.zeros(run_lengths.shape[0], dtype=np.int64)
        if run_lengths.shape[0] > 1:
            np.cumsum(self.run_lengths[:-1], out=starts[1:])
        self._starts = _readonly(starts)

    def decode(self) -> np.ndarray:
        return np.repeat(self.run_values, self.run_lengths)

    def _distinct(self) -> np.ndarray:
        return self.run_values

    def masked(self, mask: np.ndarray) -> np.ndarray:
        if self.run_values.shape[0] == 0:
            return self.run_values[:0]
        counts = np.add.reduceat(mask.astype(np.int64), self._starts)
        return np.repeat(self.run_values, counts)

    def take(self, idx: np.ndarray) -> np.ndarray:
        run_of = np.searchsorted(self._starts, idx, side="right") - 1
        return self.run_values[run_of]

    def range_mask(self, lo: float, hi: float) -> np.ndarray:
        return np.repeat(in_range(self.run_values, lo, hi), self.run_lengths)

    def batch_range_masks(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        v = self.run_values[None, :]
        hit = (v >= lows[:, None]) & (v <= highs[:, None])
        return np.repeat(hit, self.run_lengths, axis=1)


class BitPackedColumn(EncodedColumn):
    """Small-domain integer column: offset + ``width``-bit packed codes."""

    kind = BIT_PACKED

    def __init__(
        self,
        packed: np.ndarray,
        n_rows: int,
        width: int,
        offset: int,
        dtype: np.dtype,
    ) -> None:
        self.packed = _readonly(packed)
        self.n_rows = int(n_rows)
        self.width = int(width)
        self.offset = int(offset)
        self.dtype = np.dtype(dtype)
        self.encoded_bytes = _OFFSET_BYTES + int(packed.nbytes)

    @classmethod
    def encode(cls, values: np.ndarray, offset: int, width: int) -> "BitPackedColumn":
        rel = (values.astype(np.int64) - np.int64(offset)).astype(np.uint64)
        if width == 0:
            packed = np.empty(0, dtype=np.uint8)
        else:
            shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
            bits = ((rel[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            packed = np.packbits(bits)
        return cls(packed, values.shape[0], width, offset, values.dtype)

    def decode(self) -> np.ndarray:
        if self.width == 0:
            rel = np.zeros(self.n_rows, dtype=np.int64)
        else:
            bits = np.unpackbits(
                self.packed, count=self.n_rows * self.width
            ).reshape(self.n_rows, self.width)
            weights = (
                np.uint64(1) << np.arange(self.width - 1, -1, -1, dtype=np.uint64)
            )
            rel = (bits * weights).sum(axis=1).astype(np.int64)
        return (rel + np.int64(self.offset)).astype(self.dtype)


def encode_column(values: np.ndarray, value_bytes: int) -> EncodedColumn:
    """Choose and build the smallest exact encoding for one column.

    The chooser works from cheap statistics — one run-boundary pass, a
    strided-sample cardinality estimate (confirmed by a full pass only
    when the sample is promising), and min/max for integer bit packing —
    and keeps the candidate with the smallest serialized footprint.  Raw
    is always a candidate, so ``encoded_bytes <= n_rows * value_bytes``
    and a pathological column never grows.
    """
    n = int(values.shape[0])
    raw = RawColumn(values, value_bytes)
    if n < 2:
        return raw
    keys = _bit_keys(values)
    if keys is None:
        return raw

    best: EncodedColumn = raw

    # Run-length: one vectorized boundary pass on the bit patterns.
    change = keys[1:] != keys[:-1]
    n_runs = 1 + int(np.count_nonzero(change))
    rle_bytes = n_runs * (value_bytes + _LENGTH_BYTES)
    if rle_bytes < best.encoded_bytes:
        starts = np.flatnonzero(np.concatenate(([True], change)))
        lengths = np.diff(np.append(starts, n))
        best = RunLengthColumn(values[starts], lengths, value_bytes)

    # Dictionary: sampled cardinality estimate, then a confirming pass.
    stride = max(1, n // _DICT_SAMPLE)
    if np.unique(keys[::stride]).shape[0] <= _DICT_MAX_UNIQUE:
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        k = int(unique_keys.shape[0])
        if k <= _DICT_MAX_UNIQUE:
            code_dtype = (
                np.uint8 if k <= 256 else (np.uint16 if k <= 65536 else np.uint32)
            )
            dict_bytes = k * value_bytes + n * np.dtype(code_dtype).itemsize
            if dict_bytes < best.encoded_bytes:
                dict_values = (
                    unique_keys.view(values.dtype)
                    if values.dtype.kind == "f"
                    else unique_keys.astype(values.dtype)
                )
                # unique() ordered by bit pattern; re-sort numerically
                # (stable, NaN patterns last) so range predicates become
                # code-interval comparisons.
                order = np.argsort(dict_values, kind="stable")
                rank = np.empty(k, dtype=code_dtype)
                rank[order] = np.arange(k, dtype=code_dtype)
                best = DictionaryColumn(
                    dict_values[order], rank[inverse], value_bytes
                )

    # Bit packing: integer columns whose span fits a narrow code.
    if values.dtype.kind in "iu":
        lo, hi = int(values.min()), int(values.max())
        span = hi - lo
        if 0 <= span < 2**32:
            width = span.bit_length()
            packed_bytes = _OFFSET_BYTES + (n * width + 7) // 8
            if packed_bytes < best.encoded_bytes:
                best = BitPackedColumn.encode(values, lo, width)

    return best


class ColumnarPartition:
    """The columnar image of one stored partition.

    Column order matches the source table; ``project`` returns a
    lightweight view sharing the encoded columns, which is what a
    column-pruned scan reads (and is charged for).
    """

    __slots__ = (
        "name",
        "value_bytes",
        "n_rows",
        "columns",
        "encoded_bytes",
        "_projections",
        "_decoded",
        "_scratch",
    )

    def __init__(
        self,
        name: str,
        value_bytes: int,
        n_rows: int,
        columns: Dict[str, EncodedColumn],
    ) -> None:
        self.name = name
        self.value_bytes = int(value_bytes)
        self.n_rows = int(n_rows)
        self.columns = columns
        #: Total serialized footprint of the encoded columns.  A plain
        #: eager attribute: encoders are immutable and the charging
        #: replay reads this once per (job, partition) pair.
        self.encoded_bytes: int = sum(
            enc.encoded_bytes for enc in columns.values()
        )
        # Encoders are immutable, so projections and decodes are
        # cacheable; batched waves request the same few column sets
        # thousands of times and the charging replay sits on this path.
        self._projections: Dict[tuple, "ColumnarPartition"] = {}
        self._decoded: Dict[str, np.ndarray] = {}
        self._scratch: Dict[tuple, Table] = {}

    @classmethod
    def from_table(cls, table: Table) -> "ColumnarPartition":
        return cls(
            name=table.name,
            value_bytes=table.value_bytes,
            n_rows=table.n_rows,
            columns={
                name: encode_column(table.column(name), table.value_bytes)
                for name in table.column_names
            },
        )

    # Catalog-ish views ------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self.columns)

    @property
    def encodings(self) -> Dict[str, str]:
        """{column: encoding kind} — recorded in the partition synopsis."""
        return {name: enc.kind for name, enc in self.columns.items()}

    def column(self, name: str) -> EncodedColumn:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryError(
                f"columnar partition {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def column_bytes(self, names: Optional[Sequence[str]] = None) -> int:
        """Encoded bytes a scan of the named columns reads."""
        if names is None:
            return self.encoded_bytes
        return sum(self.column(name).encoded_bytes for name in names)

    def project(self, names: Optional[Sequence[str]] = None) -> "ColumnarPartition":
        """A view holding only the named columns (shared encoders)."""
        if names is None:
            return self
        key = tuple(names)
        cached = self._projections.get(key)
        if cached is None:
            cached = ColumnarPartition(
                name=self.name,
                value_bytes=self.value_bytes,
                n_rows=self.n_rows,
                columns={name: self.column(name) for name in key},
            )
            self._projections[key] = cached
        return cached

    # Materialization --------------------------------------------------------
    def decoded(self, name: str) -> np.ndarray:
        """The named column's decoded array, cached.

        Partitions are immutable, so a column decodes at most once over
        the partition's lifetime (and at zero cost for raw columns —
        their decode is the stored buffer).  Aggregation kernels gather
        survivors straight from this scratch, so a batched wave pays the
        dictionary/run expansion once, not once per query.
        """
        arr = self._decoded.get(name)
        if arr is None:
            arr = _readonly(self.column(name).decode())
            self._decoded[name] = arr
        return arr

    def scratch_table(self, names: Sequence[str]) -> Table:
        """Cached decoded view of the named columns, as a Table.

        The late-materialization partner: encoded predicates produce the
        mask, and the aggregate's ``partial_from_mask`` gathers only the
        surviving rows of only these columns from the cached decode.
        """
        key = tuple(names)
        cached = self._scratch.get(key)
        if cached is None:
            cached = Table.from_arrays(
                {name: self.decoded(name) for name in key},
                name=self.name,
                value_bytes=self.value_bytes,
            )
            self._scratch[key] = cached
        return cached

    def to_table(self) -> Table:
        """Full decode (the row-major image, bitwise)."""
        return Table.from_arrays(
            {name: enc.decode() for name, enc in self.columns.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )

    def masked_table(
        self, mask: np.ndarray, names: Optional[Sequence[str]] = None
    ) -> Table:
        """Late materialization: only surviving rows of the named columns."""
        use = self.column_names if names is None else list(names)
        require(len(use) >= 1, "masked_table needs at least one column")
        return Table.from_arrays(
            {name: self.column(name).masked(mask) for name in use},
            name=self.name,
            value_bytes=self.value_bytes,
        )

    def take(self, indices) -> Table:
        """Point-read gather of full rows at the given positions."""
        idx = np.asarray(indices, dtype=int)
        return Table.from_arrays(
            {name: enc.take(idx) for name, enc in self.columns.items()},
            name=self.name,
            value_bytes=self.value_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarPartition({self.name!r}, rows={self.n_rows}, "
            f"bytes={self.encoded_bytes}, encodings={self.encodings})"
        )


def columnar_consistent(
    columnars: Sequence[Optional[ColumnarPartition]], tables: Sequence[Table]
) -> bool:
    """True iff each columnar image bitwise matches its row-major table.

    The columnar analogue of
    :func:`repro.cluster.synopsis.synopses_consistent`: every column must
    decode to the stored array bit for bit (dtype, shape and bit
    patterns — NaNs compare by pattern, not by value), and the encoding
    choice must match a fresh build so footprints never drift after
    ``append_rows``/``delete_rows`` maintenance.
    """
    if len(columnars) != len(tables):
        return False
    for columnar, table in zip(columnars, tables):
        if columnar is None:
            return False
        if columnar.n_rows != table.n_rows:
            return False
        if columnar.column_names != table.column_names:
            return False
        if columnar.value_bytes != table.value_bytes:
            return False
        for name in table.column_names:
            stored = table.column(name)
            enc = columnar.column(name)
            decoded = enc.decode()
            if decoded.dtype != stored.dtype or decoded.shape != stored.shape:
                return False
            if decoded.tobytes() != stored.tobytes():
                return False
            fresh = encode_column(stored, table.value_bytes)
            if fresh.kind != enc.kind or fresh.encoded_bytes != enc.encoded_bytes:
                return False
    return True
