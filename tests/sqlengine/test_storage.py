"""Unit tests for column-store table storage."""

import enum
import math
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.storage import Table
from repro.sqlengine.types import ColumnType


@pytest.fixture
def table():
    schema = TableSchema(
        "T",
        [
            Column("id", ColumnType.BIGINT),
            Column("x", ColumnType.FLOAT),
            Column("tag", ColumnType.INT),
        ],
    )
    return Table(schema)


class TestInsert:
    def test_insert_and_count(self, table):
        table.insert([1, 2.5, 3])
        assert table.row_count == 1

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(ExecutionError, match="expects 3 values"):
            table.insert([1, 2.5])

    def test_type_violation_rejected(self, table):
        with pytest.raises(ExecutionError, match="bad value"):
            table.insert(["not-an-int", 2.5, 3])

    def test_values_coerced_on_insert(self, table):
        table.insert([1, 2, 3])  # int into float column
        assert table.column_values("x") == [2.0]

    def test_null_allowed(self, table):
        table.insert([1, None, None])
        assert list(table.rows()) == [(1, None, None)]

    def test_insert_many_returns_count(self, table):
        assert table.insert_many([[i, 1.0, i] for i in range(5)]) == 5


class TestSizes:
    def test_size_bytes_is_rows_times_width(self, table):
        table.insert_many([[i, 1.0, i] for i in range(4)])
        assert table.size_bytes == 4 * (8 + 8 + 4)

    def test_column_size_bytes(self, table):
        table.insert_many([[i, 1.0, i] for i in range(4)])
        assert table.column_size_bytes("tag") == 4 * 4
        assert table.column_size_bytes("id") == 4 * 8

    def test_empty_table_has_zero_size(self, table):
        assert table.size_bytes == 0


class TestAccess:
    def test_rows_in_schema_order(self, table):
        table.insert([1, 2.0, 3])
        assert list(table.rows()) == [(1, 2.0, 3)]

    def test_unknown_column_raises(self, table):
        with pytest.raises(ExecutionError):
            table.column_values("ghost")

    def test_materialized_rows_memoized(self, table):
        table.insert([1, 2.0, 3])
        first = table.materialized_rows()
        assert table.materialized_rows() is first

    def test_materialization_invalidated_by_insert(self, table):
        table.insert([1, 2.0, 3])
        first = table.materialized_rows()
        table.insert([2, 3.0, 4])
        second = table.materialized_rows()
        assert second is not first
        assert len(second) == 2


# -- Coercion parity ---------------------------------------------------
#
# ``_reference_coerce`` is ``ColumnType.coerce`` as it was written before
# the per-type coercers: one chain of ``self is ColumnType.X`` tests.
# ``Table.insert`` must store exactly what it returns, with the same
# type, or refuse the row exactly when it raises.


def _reference_coerce(ctype: ColumnType, value: Any) -> Any:
    if value is None:
        return None
    if ctype is ColumnType.BIGINT or ctype is ColumnType.INT:
        if isinstance(value, bool):
            raise TypeError(f"cannot store bool in {ctype.value} column")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeError(f"cannot store {value!r} in {ctype.value} column")
    if ctype is ColumnType.FLOAT:
        if isinstance(value, bool):
            raise TypeError("cannot store bool in float column")
        if isinstance(value, (int, float)):
            result = float(value)
            if math.isnan(result):
                raise TypeError("NaN is not storable; use NULL")
            return result
        raise TypeError(f"cannot store {value!r} in float column")
    if ctype is ColumnType.STRING:
        if isinstance(value, str):
            return value
        raise TypeError(f"cannot store {value!r} in string column")
    raise TypeError(f"unknown column type {ctype!r}")


class _Flag(enum.IntEnum):
    OFF = 0
    ON = 7


def _cell_values() -> st.SearchStrategy[Any]:
    choices = [
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(2**60), 2**60).map(float),  # integral floats
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.text(max_size=5),
        st.sampled_from(list(_Flag)),
    ]
    try:
        import numpy
    except ImportError:
        pass
    else:
        choices.append(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-(2**50), 2**50).map(float),
            ).map(numpy.float64)
        )
    return st.one_of(choices)


_PARITY_SCHEMA = TableSchema(
    "P",
    [
        Column("big", ColumnType.BIGINT),
        Column("small", ColumnType.INT),
        Column("real", ColumnType.FLOAT),
        Column("label", ColumnType.STRING),
    ],
)


def _typed(values: Any) -> list:
    return [(type(v), repr(v)) for v in values]


def _snapshot(table: Table, probes: list) -> tuple:
    """Everything an insert may touch, with each value's exact type."""
    columns = [
        _typed(table.column_values(col.name))
        for col in table.schema.columns
    ]
    indexes = {
        col.name: [
            (repr(v), table.index_positions(col.name, v))
            for v in [*table.column_values(col.name), *probes]
        ]
        for col in table.schema.columns
        if table.has_index(col.name)
    }
    return table.row_count, table.version, columns, indexes


class TestCoercionParity:
    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(_cell_values(), min_size=4, max_size=4),
                         min_size=1, max_size=6))
    def test_insert_stores_reference_coercion_or_refuses(self, indexed, rows):
        table = Table(_PARITY_SCHEMA)
        table.insert([1, 2, 0.5, "seed"])
        if indexed:
            table.create_index("big")
            table.create_index("label")
        for row in rows:
            expected, error = [], None
            for col, value in zip(_PARITY_SCHEMA.columns, row):
                try:
                    expected.append(_reference_coerce(col.ctype, value))
                except TypeError as exc:
                    error = f"bad value for P.{col.name}: {exc}"
                    break
            before = _snapshot(table, row)
            if error is not None:
                with pytest.raises(ExecutionError) as info:
                    table.insert(row)
                assert str(info.value) == error
                assert _snapshot(table, row) == before
                continue
            position = table.row_count
            table.insert(row)
            assert table.row_count == position + 1
            assert table.version == before[1] + 1
            stored = [
                table.column_values(col.name)[position]
                for col in _PARITY_SCHEMA.columns
            ]
            assert _typed(stored) == _typed(expected)
            for col, value in zip(_PARITY_SCHEMA.columns, stored):
                positions = table.index_positions(col.name, value)
                if positions is not None and value is not None:
                    assert positions[-1] == position

    @pytest.mark.parametrize("ctype", list(ColumnType), ids=lambda t: t.value)
    @settings(max_examples=300, deadline=None)
    @given(value=_cell_values())
    def test_coerce_matches_reference(self, ctype, value):
        try:
            expected = _reference_coerce(ctype, value)
        except TypeError as exc:
            with pytest.raises(TypeError) as info:
                ctype.coerce(value)
            assert str(info.value) == str(exc)
        else:
            got = ctype.coerce(value)
            assert (type(got), repr(got)) == (type(expected), repr(expected))
