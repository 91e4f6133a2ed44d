"""Unit tests for hash indexes and their use by the executor."""

import pytest

from repro.errors import CatalogError
from repro.sqlengine import Catalog, Column, ColumnType, QueryEngine, TableSchema


@pytest.fixture
def table():
    catalog = Catalog()
    table = catalog.create_table(
        TableSchema(
            "T",
            [
                Column("id", ColumnType.BIGINT),
                Column("grp", ColumnType.INT),
                Column("v", ColumnType.FLOAT),
            ],
        )
    )
    table.insert_many(
        [[i, i % 3, float(i) * 1.5] for i in range(1, 31)]
    )
    return table


def lookup(table, column, value):
    """The rows at ``table.index_positions`` (None when not indexed)."""
    positions = table.index_positions(column, value)
    if positions is None:
        return None
    rows = table.materialized_rows()
    return [rows[position] for position in positions]


class TestIndexMaintenance:
    def test_create_and_lookup(self, table):
        table.create_index("id")
        assert table.has_index("id")
        rows = lookup(table, "id", 7)
        assert rows == [(7, 1, 10.5)]

    def test_lookup_without_index_returns_none(self, table):
        assert lookup(table, "id", 7) is None

    def test_missing_value_is_empty_list(self, table):
        table.create_index("id")
        assert lookup(table, "id", 999) == []

    def test_null_probe_matches_nothing(self, table):
        table.create_index("id")
        assert lookup(table, "id", None) == []

    def test_non_unique_index(self, table):
        table.create_index("grp")
        rows = lookup(table, "grp", 0)
        assert len(rows) == 10
        assert all(row[1] == 0 for row in rows)

    def test_insert_maintains_index(self, table):
        table.create_index("id")
        table.insert([100, 1, 5.0])
        assert lookup(table, "id", 100) == [(100, 1, 5.0)]

    def test_null_values_not_indexed(self, table):
        table.create_index("v")
        table.insert([200, 0, None])
        assert lookup(table, "v", None) == []

    def test_unknown_column_rejected(self, table):
        with pytest.raises(CatalogError):
            table.create_index("ghost")

    def test_case_insensitive(self, table):
        table.create_index("ID")
        assert lookup(table, "Id", 3) == [(3, 0, 4.5)]


class TestExecutorUsesIndex:
    def _engine(self, table):
        catalog = Catalog("indexed")
        catalog.add_table(table)
        return QueryEngine(catalog)

    def test_point_query_same_result_with_index(self, table):
        engine = self._engine(table)
        sql = "SELECT id, v FROM T WHERE id = 12"
        before = engine.execute(sql).rows
        table.create_index("id")
        after = engine.execute(sql).rows
        assert after == before == [(12, 18.0)]

    def test_reversed_operands(self, table):
        table.create_index("id")
        engine = self._engine(table)
        result = engine.execute("SELECT v FROM T WHERE 12 = id")
        assert result.rows == [(18.0,)]

    def test_extra_predicates_still_applied(self, table):
        table.create_index("grp")
        engine = self._engine(table)
        result = engine.execute(
            "SELECT id FROM T WHERE grp = 1 AND v > 30"
        )
        assert result.column_values("id") == [22, 25, 28]

    def test_index_in_join_scan(self, table):
        catalog = Catalog("joined")
        catalog.add_table(table)
        other = catalog.create_table(
            TableSchema(
                "U",
                [Column("id", ColumnType.BIGINT),
                 Column("w", ColumnType.INT)],
            )
        )
        other.insert_many([[i, i * 10] for i in range(1, 6)])
        table.create_index("id")
        engine = QueryEngine(catalog)
        result = engine.execute(
            "SELECT t.id, u.w FROM T t, U u "
            "WHERE t.id = u.id AND t.id = 3"
        )
        assert result.rows == [(3, 30)]

    def test_no_match_via_index(self, table):
        table.create_index("id")
        engine = self._engine(table)
        assert engine.execute(
            "SELECT id FROM T WHERE id = 404"
        ).row_count == 0
