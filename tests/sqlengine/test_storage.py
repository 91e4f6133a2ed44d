"""Unit tests for column-store table storage."""

import pytest

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
