"""Unit tests for scalar functions (ABS, SQRT, FLOOR, ... )."""

import pytest

from repro.errors import PlanError
from repro.sqlengine.functions import is_scalar_function, scalar_function
from repro.sqlengine.parser import parse
from repro.sqlengine.printer import to_sql


class TestRegistry:
    def test_known_functions(self):
        for name in ("abs", "floor", "ceiling", "sqrt", "log10",
                     "power", "round"):
            assert is_scalar_function(name)
            assert is_scalar_function(name.upper())

    def test_unknown_function(self):
        assert not is_scalar_function("median")
        with pytest.raises(PlanError):
            scalar_function("median")


class TestEvaluation:
    def test_abs(self, engine):
        result = engine.execute(
            "SELECT ABS(dec) FROM PhotoObj WHERE objID = 1"
        )
        assert result.rows == [(10.0,)]

    def test_sqrt(self, engine):
        result = engine.execute(
            "SELECT SQRT(ra) FROM PhotoObj WHERE objID = 5"
        )
        assert result.rows[0][0] == pytest.approx(40 ** 0.5)

    def test_sqrt_of_negative_is_null(self, engine):
        result = engine.execute(
            "SELECT SQRT(dec) FROM PhotoObj WHERE objID = 1"
        )
        assert result.rows == [(None,)]

    def test_floor_ceiling(self, engine):
        result = engine.execute(
            "SELECT FLOOR(modelMag_g), CEILING(modelMag_g) "
            "FROM PhotoObj WHERE objID = 2"
        )
        assert result.rows == [(15, 16)]

    def test_round_with_digits(self, engine):
        result = engine.execute(
            "SELECT ROUND(modelMag_g, 1) FROM PhotoObj WHERE objID = 2"
        )
        assert result.rows == [(15.5,)]

    def test_power(self, engine):
        result = engine.execute(
            "SELECT POWER(objID, 3) FROM PhotoObj WHERE objID = 3"
        )
        assert result.rows == [(27.0,)]

    def test_log10_of_non_positive_is_null(self, engine):
        result = engine.execute(
            "SELECT LOG10(dec) FROM PhotoObj WHERE objID = 1"
        )
        assert result.rows == [(None,)]

    def test_in_where_clause(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE POWER(objID, 2) < 10"
        )
        assert result.column_values("objID") == [1, 2, 3]

    def test_nested(self, engine):
        result = engine.execute(
            "SELECT SQRT(ABS(dec)) FROM PhotoObj WHERE objID = 1"
        )
        assert result.rows[0][0] == pytest.approx(10 ** 0.5)

    def test_null_argument_propagates(self, engine, catalog):
        catalog.table("PhotoObj").insert([99, None, 0.0, 0, 18.0, 17.0])
        result = engine.execute(
            "SELECT SQRT(ra) FROM PhotoObj WHERE objID = 99"
        )
        assert result.rows == [(None,)]


class TestWithAggregates:
    def test_scalar_of_aggregate(self, engine):
        result = engine.execute("SELECT FLOOR(AVG(objID)) FROM PhotoObj")
        assert result.rows == [(10,)]

    def test_aggregate_of_scalar(self, engine):
        result = engine.execute("SELECT MAX(ABS(dec)) FROM PhotoObj")
        assert result.rows == [(10.0,)]

    def test_grouped(self, engine):
        result = engine.execute(
            "SELECT type, ROUND(AVG(modelMag_g), 2) FROM PhotoObj "
            "GROUP BY type ORDER BY type"
        )
        assert [row[0] for row in result.rows] == [0, 1, 2]


class TestErrors:
    def test_wrong_arity(self, engine):
        with pytest.raises(PlanError, match="argument"):
            engine.execute("SELECT SQRT(ra, dec) FROM PhotoObj")

    def test_unknown_function(self, engine):
        with pytest.raises(PlanError, match="unknown function"):
            engine.execute("SELECT MEDIAN(ra) FROM PhotoObj")

    def test_star_argument_rejected(self, engine):
        with pytest.raises(PlanError):
            engine.execute("SELECT SQRT(*) FROM PhotoObj")


class TestPrinterRoundtrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT ABS(a) FROM T",
            "SELECT SQRT(a + b) FROM T WHERE POWER(a, 2) > 4",
            "SELECT FLOOR(AVG(a)) FROM T",
            "SELECT ROUND(a, 2) FROM T ORDER BY ABS(a)",
        ],
    )
    def test_roundtrip(self, sql):
        assert parse(to_sql(parse(sql))) == parse(sql)
