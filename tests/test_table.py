"""Unit + property tests for repro.data.tabular.Table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, QueryError
from repro.data import Table


def sample_table(n=10):
    return Table(
        {"a": np.arange(n, dtype=float), "b": np.arange(n, dtype=float) * 2},
        name="t",
    )


class TestConstruction:
    def test_basic_properties(self):
        t = sample_table(10)
        assert t.n_rows == 10
        assert t.n_columns == 2
        assert t.column_names == ["a", "b"]
        assert t.n_bytes == 10 * 2 * 8
        assert t.row_bytes == 16
        assert len(t) == 10

    def test_unequal_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Table({"a": np.zeros(3), "b": np.zeros(4)})

    def test_empty_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            Table({})

    def test_2d_column_rejected(self):
        with pytest.raises(ConfigurationError):
            Table({"a": np.zeros((3, 2))})

    def test_missing_column_raises_query_error(self):
        t = sample_table()
        with pytest.raises(QueryError, match="no column"):
            t.column("zzz")

    def test_contains_and_getitem(self):
        t = sample_table()
        assert "a" in t and "zzz" not in t
        assert np.array_equal(t["a"], t.column("a"))


class TestOperations:
    def test_select_by_mask(self):
        t = sample_table(10)
        out = t.select(t["a"] >= 5)
        assert out.n_rows == 5
        assert out["a"].min() == 5

    def test_select_wrong_mask_length_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_table(10).select(np.ones(5, dtype=bool))

    def test_take_preserves_order(self):
        t = sample_table(10)
        out = t.take([3, 1, 4])
        assert out["a"].tolist() == [3.0, 1.0, 4.0]

    def test_project(self):
        out = sample_table().project(["b"])
        assert out.column_names == ["b"]

    def test_matrix_column_order(self):
        t = sample_table(3)
        m = t.matrix(["b", "a"])
        assert m[:, 0].tolist() == [0.0, 2.0, 4.0]

    def test_with_column_adds_and_replaces(self):
        t = sample_table(3)
        t2 = t.with_column("c", [1.0, 2.0, 3.0])
        assert t2.column_names == ["a", "b", "c"]
        t3 = t2.with_column("a", [9.0, 9.0, 9.0])
        assert t3["a"].tolist() == [9.0] * 3
        assert t["a"].tolist() == [0.0, 1.0, 2.0]  # original untouched

    def test_with_column_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_table(3).with_column("c", [1.0])

    def test_concat_schema_mismatch_rejected(self):
        a = Table({"x": np.zeros(2)})
        b = Table({"y": np.zeros(2)})
        with pytest.raises(ConfigurationError):
            Table.concat([a, b])

    def test_slice_rows(self):
        out = sample_table(10).slice_rows(2, 5)
        assert out["a"].tolist() == [2.0, 3.0, 4.0]

    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_concat_roundtrip_property(self, n_rows, n_parts):
        t = sample_table(n_rows)
        parts = t.split(n_parts)
        assert len(parts) == n_parts
        assert sum(p.n_rows for p in parts) == n_rows
        # Sizes differ by at most one.
        sizes = [p.n_rows for p in parts]
        assert max(sizes) - min(sizes) <= 1
        merged = Table.concat(parts)
        assert np.array_equal(merged["a"], t["a"])
        assert np.array_equal(merged["b"], t["b"])


def bits(table):
    """Column name -> raw bytes: equality that tells NaN payloads apart."""
    return {c: table[c].tobytes() for c in table.column_names}


def payload_table(n, seed):
    """Floats incl. NaNs with distinct payloads, -0.0 and infinities; ints."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    raw[::3] = np.uint64(0x7FF8000000000000) | rng.integers(
        1, 2**40, size=raw[::3].shape[0], dtype=np.uint64
    )
    return Table(
        {"f": raw.view(np.float64), "i": rng.integers(-9, 9, size=n)}, name="p"
    )


class TestAppended:
    def test_equals_concat_bitwise_along_a_chain(self):
        grown = reference = payload_table(5, 0)
        for seed in range(1, 40):
            piece = payload_table(seed % 7, seed)
            grown = grown.appended(piece)
            reference = Table.concat([reference, piece])
            assert bits(grown) == bits(reference)
            assert grown.column_names == reference.column_names
            assert (grown.name, grown.value_bytes) == ("p", 8)
            assert grown["f"].dtype == np.float64 and grown["i"].dtype == np.int64

    def test_tail_append_is_in_place_and_results_are_read_only(self):
        first = sample_table(100).appended(sample_table(1))
        second = first.appended(sample_table(3))
        assert np.shares_memory(first["a"], second["a"])
        assert second["a"][:101].tobytes() == first["a"].tobytes()
        assert not second["a"].flags.writeable
        with pytest.raises(ValueError):
            second["a"][0] = 1.0

    def test_two_appends_from_one_parent_do_not_see_each_other(self):
        parent = sample_table(10).appended(sample_table(2))
        left = parent.appended(Table({"a": [1.0], "b": [1.0]}))
        right = parent.appended(Table({"a": [2.0, 2.0], "b": [2.0, 2.0]}))
        again = parent.appended(Table({"a": [3.0], "b": [3.0]}))
        assert left["a"].tolist()[12:] == [1.0]
        assert right["a"].tolist()[12:] == [2.0, 2.0]
        assert again["a"].tolist()[12:] == [3.0]
        assert parent.n_rows == 12

    def test_parent_unchanged_after_1000_appends_to_its_child(self):
        parent = payload_table(64, 1)
        before = bits(parent)
        child = parent.appended(payload_table(1, 2))
        held = [(child, bits(child))]
        for seed in range(1000):
            child = child.appended(payload_table(1 + seed % 3, seed))
            if seed % 100 == 0:
                held.append((child, bits(child)))
        assert bits(parent) == before
        assert all(bits(table) == was for table, was in held)
        assert child.n_rows == 64 + 1 + sum(1 + s % 3 for s in range(1000))

    def test_mixed_dtypes_fall_back_to_concat(self):
        ints = Table({"x": np.arange(4)}, name="t")
        floats = Table({"x": np.array([0.5])}, name="u")
        out = ints.appended(ints).appended(floats)
        want = Table.concat([ints, ints, floats])
        assert out["x"].dtype == want["x"].dtype == np.float64
        assert bits(out) == bits(want)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Table({"x": np.zeros(2)}).appended(Table({"y": np.zeros(2)}))

    def test_amortised_cost_is_the_piece(self):
        """1 000 one-row appends reallocate a handful of times, not 1 000."""
        table = sample_table(1000)
        addresses = set()
        for _ in range(1000):
            table = table.appended(sample_table(1))
            addresses.add(table["a"].__array_interface__["data"][0])
        assert len(addresses) <= 5

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_append_tree_equals_concat(self, steps):
        """Append to *any* earlier table (tail or not): every table ever
        handed out keeps equalling its from-scratch concat."""
        pool = [(payload_table(3, 0),) * 2]
        for seed, (parent, n) in enumerate(steps):
            table, reference = pool[parent % len(pool)]
            piece = payload_table(n, seed + 1)
            pool.append(
                (table.appended(piece), Table.concat([reference, piece]))
            )
            for got, want in pool:
                assert bits(got) == bits(want)

    def test_slices_are_trusted_read_only_views(self):
        backing = np.arange(10.0)
        table = Table({"a": backing})
        piece = table.slice_rows(2, 5)
        assert np.shares_memory(piece["a"], backing)
        assert not piece["a"].flags.writeable
        assert backing.flags.writeable  # the caller's own array is not marked
        assert (piece.name, piece.value_bytes) == (table.name, table.value_bytes)
        assert table.slice_rows(7, 99).n_rows == 3


def brute_sorted(col):
    """Non-decreasing and NaN-free, one python comparison at a time."""
    values = col.tolist()
    return all(v == v for v in values) and all(
        a <= b for a, b in zip(values, values[1:])
    )


#: Few distinct values, so sorted runs, ties and signed zeros are common.
ORDER_VALUES = [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, 2.0, np.inf]


def order_table(values):
    col = np.asarray(values, dtype=float)
    return Table({"k": col, "r": col[::-1].copy()}, name="o")


order_pieces = st.one_of(
    # mostly sorted pieces, so chains stay sorted long enough to matter
    st.lists(st.sampled_from(ORDER_VALUES), max_size=6).map(sorted),
    st.lists(st.sampled_from(ORDER_VALUES + [np.nan]), max_size=6),
)


class TestIsSorted:
    def test_definition(self):
        assert order_table([]).is_sorted("k")
        assert order_table([3.0]).is_sorted("k")
        assert not order_table([np.nan]).is_sorted("k")
        assert order_table([-0.0, 0.0, -0.0, 1.0, 1.0, np.inf]).is_sorted("k")
        assert not order_table([0.0, 1.0, np.nan]).is_sorted("k")
        assert not order_table([0.0, 2.0, 1.0]).is_sorted("k")
        assert Table({"i": np.array([1, 1, 2])}).is_sorted("i")
        with pytest.raises(QueryError):
            order_table([1.0]).is_sorted("missing")

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),  # which earlier table (tail or not)
                st.sampled_from(
                    ["appended", "range", "slice", "select", "concat"]
                ),
                order_pieces,
                st.booleans(),  # ask the parent first, so the child inherits
                st.integers(0, 8),
                st.integers(0, 8),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force_after_any_chain(self, steps):
        pool = [order_table([0.0, 1.0])]
        for parent, op, values, ask, a, b in steps:
            table = pool[parent % len(pool)]
            if ask:
                table.is_sorted("k")
            piece = order_table(values)
            lo, hi = min(a, b), max(a, b)
            if op == "appended":
                out = table.appended(piece)
            elif op == "range":
                stop = min(hi, piece.n_rows)
                out = table.appended(piece, min(lo, stop), stop)
            elif op == "slice":
                out = table.slice_rows(lo, hi)
            elif op == "select":
                out = table.select(np.arange(table.n_rows) % (a + 2) != 0)
            else:
                out = Table.concat([table, piece])
            pool.append(out)
            for held in pool:  # earlier answers must not have been disturbed
                for c in ("k", "r"):
                    assert held.is_sorted(c) == brute_sorted(held[c])

    def test_ranged_append_equals_appending_the_slice(self):
        parent = payload_table(9, 0).appended(payload_table(2, 1))
        piece = payload_table(12, 2)
        assert bits(parent.appended(piece, 3, 7)) == bits(
            Table.concat([parent, piece.slice_rows(3, 7)])
        )
        assert bits(parent.appended(piece, 5)) == bits(
            Table.concat([parent, piece.slice_rows(5, 12)])
        )
        for start, stop in [(-1, 3), (4, 3), (0, 13)]:
            with pytest.raises(ConfigurationError):
                parent.appended(piece, start, stop)

    def test_a_chain_of_appends_never_rescans_the_parent(self, monkeypatch):
        from repro.data import tabular

        scanned = []
        real = tabular._nondecreasing

        def counting(col):
            scanned.append(col.shape[0])
            return real(col)

        monkeypatch.setattr(tabular, "_nondecreasing", counting)
        table = order_table(np.arange(10_000.0))
        assert table.is_sorted("k") and scanned == [10_000]
        for step in range(50):
            first = 10_000.0 + 4 * step
            table = table.appended(order_table(first + np.arange(4.0)))
        assert table.is_sorted("k") and table.select(
            np.ones(table.n_rows, dtype=bool)
        ).is_sorted("k")
        # One look per append, at the old last row and the four new ones.
        assert scanned[1:] == [5] * 50
        late = table.appended(order_table([7.0]))
        assert not late.is_sorted("k") and table.is_sorted("k")
        del scanned[:]
        # Unsorted stays unsorted without looking; "r" was never asked.
        assert not late.appended(order_table([1e9])).is_sorted("k")
        assert scanned == []

    def test_layout_agreement_is_per_source_buffer(self):
        ints = Table({"x": np.arange(4)}, name="t")
        source = ints.appended(ints)  # a buffered piece source
        grown = ints.appended(source).appended(source)  # agreed with it
        floats = Table({"x": np.array([0.5])}).appended(
            Table({"x": np.array([1.5])})
        )
        out = grown.appended(floats)
        want = Table.concat([grown, floats])
        assert out["x"].dtype == np.float64 and bits(out) == bits(want)
        with pytest.raises(ConfigurationError):
            grown.appended(Table({"y": np.arange(2)}).appended(Table({"y": [1]})))


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        t = sample_table(25)
        path = str(tmp_path / "t.csv")
        t.to_csv(path)
        back = Table.from_csv(path, name="t")
        assert back.column_names == t.column_names
        assert np.allclose(back["a"], t["a"])
        assert np.allclose(back["b"], t["b"])

    def test_from_csv_preserves_value_bytes(self, tmp_path):
        t = sample_table(5)
        path = str(tmp_path / "t.csv")
        t.to_csv(path)
        wide = Table.from_csv(path, value_bytes=128)
        assert wide.row_bytes == 2 * 128

    def test_from_csv_default_name_is_filename(self, tmp_path):
        t = sample_table(3)
        path = str(tmp_path / "mydata.csv")
        t.to_csv(path)
        assert Table.from_csv(path).name == "mydata.csv"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            Table.from_csv(str(path))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1.0,2.0\n")
        with pytest.raises(Exception):
            Table.from_csv(str(path))

    def test_single_row_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b\n1.5,2.5\n")
        t = Table.from_csv(str(path))
        assert t.n_rows == 1
        assert t["a"][0] == 1.5
