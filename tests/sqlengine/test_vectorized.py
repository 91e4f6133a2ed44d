"""Vectorized columnar scans: differential equivalence with the row
path, 3VL edge cases, cache invalidation, and the no-numpy fallback.

The vectorized engine is an optimization, never a semantic change: for
every query the filtered rows must match what the row-at-a-time
interpreter produces, in content and in order.  Queries the vectorizer
cannot handle must degrade to the row path silently.
"""

import pytest

from repro.sqlengine import Catalog, Column, ColumnType, QueryEngine, TableSchema
from repro.sqlengine import vectorized

from tests.conftest import build_catalog

pytestmark = pytest.mark.skipif(
    not vectorized.HAVE_NUMPY, reason="numpy not installed"
)

#: Queries exercising every vectorizable construct against the shared
#: 20-row PhotoObj / 10-row SpecObj fixture catalog.
DIFFERENTIAL_QUERIES = [
    "SELECT * FROM PhotoObj WHERE objID = 7",
    "SELECT objID, ra FROM PhotoObj WHERE ra > 55",
    "SELECT objID FROM PhotoObj WHERE ra BETWEEN 20 AND 90",
    "SELECT objID FROM PhotoObj WHERE ra NOT BETWEEN 20 AND 90",
    "SELECT objID FROM PhotoObj WHERE type = 1 AND ra < 100",
    "SELECT objID FROM PhotoObj WHERE objID = 1 OR objID = 20",
    "SELECT objID FROM PhotoObj WHERE NOT (type = 0)",
    "SELECT objID FROM PhotoObj WHERE objID IN (3, 5, 99)",
    "SELECT objID FROM PhotoObj WHERE modelMag_g - modelMag_r > 0.5",
    "SELECT objID FROM PhotoObj WHERE ra / 10 = 3",
    "SELECT objID FROM PhotoObj WHERE objID % 4 = 1",
    "SELECT objID FROM PhotoObj WHERE dec >= -2.5",
    "SELECT objID FROM PhotoObj WHERE objID <> 10",
    "SELECT z FROM SpecObj WHERE zConf > 0.85 AND specClass = 2",
    "SELECT p.objID, s.z FROM PhotoObj p JOIN SpecObj s "
    "ON p.objID = s.objID WHERE p.ra > 30 AND s.zConf > 0.82",
]


@pytest.fixture
def engine():
    return QueryEngine(build_catalog())


def row_path_result(engine, sql, monkeypatch):
    """Execute with the vectorized scan disabled (pure row path)."""
    monkeypatch.setattr(
        vectorized, "filtered_positions", lambda *args: None
    )
    try:
        return engine.execute(sql)
    finally:
        monkeypatch.undo()


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    def test_same_rows_same_order(self, engine, sql, monkeypatch):
        vector = engine.execute(sql)
        rows = row_path_result(engine, sql, monkeypatch)
        assert vector.rows == rows.rows, sql
        assert vector.column_names() == rows.column_names()
        assert vector.byte_size == rows.byte_size


def null_catalog():
    """A table with NULLs in every comparable column."""
    catalog = Catalog("nulls")
    table = catalog.create_table(
        TableSchema(
            "t",
            [
                Column("id", ColumnType.INT),
                Column("val", ColumnType.FLOAT),
                Column("name", ColumnType.STRING),
            ],
        )
    )
    rows = [
        [1, 10.0, "a"],
        [2, None, "b"],
        [3, 30.0, None],
        [None, 40.0, "d"],
        [5, None, None],
    ]
    for row in rows:
        table.insert(row)
    return catalog


NULL_QUERIES = [
    # UNKNOWN never passes a WHERE: rows with NULL operands drop.
    "SELECT id FROM t WHERE val > 5",
    "SELECT id FROM t WHERE val = 30.0",
    "SELECT id FROM t WHERE name = 'b'",
    # 3VL AND/OR/NOT: UNKNOWN must not leak through negation.
    "SELECT id FROM t WHERE NOT (val > 5)",
    "SELECT id FROM t WHERE val > 5 AND name = 'a'",
    "SELECT id FROM t WHERE val > 5 OR name = 'd'",
    "SELECT id FROM t WHERE id IS NULL",
    "SELECT id FROM t WHERE val IS NOT NULL",
    "SELECT id FROM t WHERE val BETWEEN 5 AND 35",
    # NULL in an IN list makes non-matches UNKNOWN, not FALSE.
    "SELECT id FROM t WHERE id IN (1, 2)",
    "SELECT id FROM t WHERE id NOT IN (1, 2)",
    # Zero divisors NULL out instead of raising.
    "SELECT id FROM t WHERE 10 / (id - 1) > 2",
]


class TestThreeValuedLogic:
    @pytest.mark.parametrize("sql", NULL_QUERIES)
    def test_null_semantics_match_row_path(self, sql, monkeypatch):
        engine = QueryEngine(null_catalog())
        vector = engine.execute(sql)
        rows = row_path_result(engine, sql, monkeypatch)
        assert vector.rows == rows.rows, sql


class TestCacheInvalidation:
    def test_insert_bumps_version_and_invalidates(self):
        catalog = null_catalog()
        engine = QueryEngine(catalog)
        table = catalog.table("t")
        before = table.version
        assert engine.execute(
            "SELECT id FROM t WHERE val > 5"
        ).row_count == 3
        table.insert([6, 60.0, "f"])
        assert table.version > before
        # The cached column vectors must not serve stale data.
        assert engine.execute(
            "SELECT id FROM t WHERE val > 5"
        ).row_count == 4


class TestFallbacks:
    def test_no_numpy_means_row_path(self, engine, monkeypatch):
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
        result = engine.execute("SELECT objID FROM PhotoObj WHERE ra > 55")
        assert result.row_count == 14

    def test_filtered_positions_declines_without_predicates(self):
        catalog = null_catalog()
        table = catalog.table("t")
        assert vectorized.filtered_positions(table, [], None) is None

    def test_unvectorizable_expression_degrades_silently(self, engine):
        # String methods / functions are not vectorized; the query must
        # still run through the row path with correct results.
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID = 1 + 1"
        )
        assert result.column_values("objID") == [2]


def bigint_catalog():
    """A 40-row BIGINT column ``id`` = 1…40."""
    catalog = Catalog("bigint")
    table = catalog.create_table(
        TableSchema("T", [Column("id", ColumnType.BIGINT)])
    )
    table.insert_many([i] for i in range(1, 41))
    return catalog


class TestIntegerRange:
    """int64 wraps where Python ints grow: integer arithmetic that could
    leave the float64-exact range is declined, never computed wrongly."""

    @pytest.mark.parametrize(
        "predicate",
        [
            "id + 9223372036854775807 > 5",   # wrapped negative: 0 rows
            "id * 9223372036854775807 > 5",   # wrapped every other: 20
        ],
    )
    def test_arithmetic_beyond_int64_matches_row_path(
        self, predicate, monkeypatch
    ):
        engine = QueryEngine(bigint_catalog())
        sql = f"SELECT id FROM T WHERE {predicate}"
        assert engine.yield_bytes(sql) == 320
        vector = engine.execute(sql)
        assert vector.byte_size == 320
        assert vector.rows == row_path_result(engine, sql, monkeypatch).rows
        assert len(vector.rows) == 40

    @pytest.mark.parametrize(
        "predicate, count",
        [
            ("id = 100000000000000000000", 0),
            ("id < 100000000000000000000", 40),
            ("id IN (7, 100000000000000000000)", 1),
            ("id BETWEEN -100000000000000000000 "
             "AND 100000000000000000000", 40),
        ],
    )
    def test_literal_beyond_int64_matches_row_path(
        self, predicate, count, monkeypatch
    ):
        engine = QueryEngine(bigint_catalog())
        sql = f"SELECT id FROM T WHERE {predicate}"
        vector = engine.execute(sql)
        assert vector.row_count == count
        assert vector.rows == row_path_result(engine, sql, monkeypatch).rows
        assert len(vector.rows) == count
