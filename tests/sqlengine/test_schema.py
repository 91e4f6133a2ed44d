"""Unit tests for columns and table schemas."""

import pytest

from repro.errors import CatalogError
from repro.sqlengine.schema import (
    Column,
    DatabaseSchema,
    TableSchema,
)
from repro.sqlengine.types import ColumnType


class TestColumn:
    def test_width_defaults_to_type_width(self):
        assert Column("ra", ColumnType.FLOAT).width == 8

    def test_explicit_width_respected(self):
        assert Column("name", ColumnType.STRING, width=32).width == 32

    def test_negative_width_rejected(self):
        with pytest.raises(CatalogError):
            Column("x", ColumnType.INT, width=-4)

    def test_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("", ColumnType.INT)

    def test_key_is_lowercase(self):
        assert Column("ObjID", ColumnType.BIGINT).key == "objid"


class TestTableSchema:
    def _schema(self):
        return TableSchema(
            "T",
            [
                Column("a", ColumnType.BIGINT),
                Column("b", ColumnType.INT),
                Column("c", ColumnType.FLOAT),
            ],
        )

    def test_row_width_sums_column_widths(self):
        assert self._schema().row_width == 8 + 4 + 8

    def test_lookup_is_case_insensitive(self):
        schema = self._schema()
        assert schema.column("A").name == "a"
        assert "B" in schema

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            self._schema().column("zz")

    def test_index_of(self):
        schema = self._schema()
        assert schema.index_of("c") == 2
        with pytest.raises(CatalogError):
            schema.index_of("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "T",
                [Column("a", ColumnType.INT), Column("A", ColumnType.INT)],
            )

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("T", [])

    def test_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("", [Column("a", ColumnType.INT)])

    def test_iteration_preserves_order(self):
        names = [col.name for col in self._schema()]
        assert names == ["a", "b", "c"]

    def test_len(self):
        assert len(self._schema()) == 3


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        db = DatabaseSchema("db")
        table = TableSchema("T", [Column("a", ColumnType.INT)])
        db.add(table)
        assert db.table("t") is table
        assert "T" in db

    def test_duplicate_table_rejected(self):
        db = DatabaseSchema("db")
        db.add(TableSchema("T", [Column("a", ColumnType.INT)]))
        with pytest.raises(CatalogError):
            db.add(TableSchema("t", [Column("b", ColumnType.INT)]))

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            DatabaseSchema("db").table("ghost")

    def test_table_names(self):
        db = DatabaseSchema("db")
        db.add(TableSchema("A", [Column("x", ColumnType.INT)]))
        db.add(TableSchema("B", [Column("y", ColumnType.INT)]))
        assert db.table_names() == ["A", "B"]
