"""End-to-end tests for query execution against the fixture catalog.

The catalog holds 20 PhotoObj rows (objID 1..20, ra = (objID-1)*10) and
10 SpecObj rows joining odd objIDs (1, 3, ..., 19).
"""

import pytest

from repro.errors import ExecutionError, PlanError


class TestProjectionAndFilter:
    def test_select_star_returns_all(self, engine):
        result = engine.execute("SELECT * FROM PhotoObj")
        assert result.row_count == 20
        assert len(result.columns) == 6

    def test_projection_columns(self, engine):
        result = engine.execute("SELECT objID, ra FROM PhotoObj")
        assert result.column_names() == ["objID", "ra"]

    def test_equality_filter(self, engine):
        result = engine.execute("SELECT ra FROM PhotoObj WHERE objID = 3")
        assert result.rows == [(20.0,)]

    def test_range_filter(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE ra BETWEEN 0 AND 35"
        )
        assert result.column_values("objID") == [1, 2, 3, 4]

    def test_conjunction(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE ra > 50 AND type = 0"
        )
        assert all(
            obj_id % 3 == 1 for obj_id in result.column_values("objID")
        )

    def test_disjunction(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID = 1 OR objID = 20"
        )
        assert result.column_values("objID") == [1, 20]

    def test_in_predicate(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID IN (5, 6, 99)"
        )
        assert result.column_values("objID") == [5, 6]

    def test_no_match_is_empty(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID = 999"
        )
        assert result.row_count == 0
        assert result.byte_size == 0

    def test_computed_output(self, engine):
        result = engine.execute(
            "SELECT modelMag_g - modelMag_r AS color FROM PhotoObj "
            "WHERE objID = 1"
        )
        assert result.rows == [(1.0,)]


class TestJoins:
    def test_implicit_equi_join(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.z FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID"
        )
        assert result.row_count == 10
        assert set(result.column_values("objID")) == set(range(1, 20, 2))

    def test_explicit_join(self, engine):
        result = engine.execute(
            "SELECT p.objID FROM PhotoObj p JOIN SpecObj s "
            "ON p.objID = s.objID WHERE s.specClass = 2"
        )
        # specClass = i % 4 == 2 -> i in {2, 6}; objID = 2i+1 -> {5, 13}
        assert result.column_values("objID") == [5, 13]

    def test_join_order_independent(self, engine):
        forward = engine.execute(
            "SELECT p.objID FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID"
        )
        reverse = engine.execute(
            "SELECT p.objID FROM SpecObj s, PhotoObj p "
            "WHERE p.objID = s.objID"
        )
        assert sorted(forward.rows) == sorted(reverse.rows)

    def test_join_with_local_filters(self, engine):
        result = engine.execute(
            "SELECT p.objID FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID AND p.ra < 50 AND s.zConf > 0.8"
        )
        # objID 1..5 have ra < 50; joinable odd ids are 1, 3, 5 with
        # spec index i = 0, 1, 2 -> zConf 0.80, 0.82, 0.84; > 0.8 keeps
        # objIDs 3 and 5.
        assert result.column_values("objID") == [3, 5]

    def test_cartesian_product(self, engine):
        result = engine.execute(
            "SELECT p.objID FROM PhotoObj p, SpecObj s WHERE p.objID = 1"
        )
        assert result.row_count == 10  # 1 photo row x 10 spec rows

    def test_cross_table_residual(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.objID AS sid FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID AND p.modelMag_g > s.zConf"
        )
        assert result.row_count == 10  # mags always exceed confidences

    def test_left_join_pads_unmatched(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.z FROM PhotoObj p LEFT JOIN SpecObj s "
            "ON p.objID = s.objID"
        )
        # All 20 photo objects survive; only odd ids (1..19) match.
        assert result.row_count == 20
        matched = [row for row in result.rows if row[1] is not None]
        padded = [row for row in result.rows if row[1] is None]
        assert len(matched) == 10
        assert all(row[0] % 2 == 0 for row in padded)

    def test_left_join_on_condition_does_not_filter_left(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.z FROM PhotoObj p LEFT JOIN SpecObj s "
            "ON p.objID = s.objID AND s.specClass = 2"
        )
        # The extra ON conjunct restricts matches, never the left side.
        assert result.row_count == 20
        matched = [row for row in result.rows if row[1] is not None]
        assert len(matched) == 2  # spec rows with specClass = 2

    def test_left_join_anti_join_idiom(self, engine):
        result = engine.execute(
            "SELECT p.objID FROM PhotoObj p LEFT JOIN SpecObj s "
            "ON p.objID = s.objID WHERE s.objID IS NULL ORDER BY p.objID"
        )
        assert result.column_values("objID") == list(range(2, 21, 2))

    def test_left_join_where_filters_after_padding(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.z FROM PhotoObj p LEFT JOIN SpecObj s "
            "ON p.objID = s.objID WHERE s.z > 0.05"
        )
        # WHERE on the nullable side drops padded rows (NULL > x is
        # unknown), i.e. behaves like an inner join — standard SQL.
        assert all(row[1] is not None and row[1] > 0.05 for row in result.rows)

    def test_left_join_non_equi_on(self, engine):
        result = engine.execute(
            "SELECT p.objID, s.specObjID FROM PhotoObj p "
            "LEFT JOIN SpecObj s ON p.objID > s.objID + 16"
        )
        # Nested-loop path: objID > s.objID + 16 matches photo ids 18..20
        # against spec objID 1 and photo 20 against spec objID 3.
        matched = [row for row in result.rows if row[1] is not None]
        assert len(matched) == 4  # 18>17, 19>17, 20>17, 20>19
        assert result.row_count == 21  # 17 padded photo ids + 4 matches

    def test_paper_example_query_shape(self, engine):
        result = engine.execute(
            "SELECT p.objID, p.ra, p.dec, p.modelMag_g, s.z AS redshift "
            "FROM SpecObj s, PhotoObj p "
            "WHERE p.objID = s.objID AND s.specClass = 2 "
            "AND s.zConf > 0.8 AND p.modelMag_g > 17.0 AND s.z < 0.09"
        )
        assert result.column_names() == [
            "objID", "ra", "dec", "modelMag_g", "redshift",
        ]


class TestAggregates:
    def test_count_star(self, engine):
        result = engine.execute("SELECT COUNT(*) FROM PhotoObj")
        assert result.rows == [(20,)]

    def test_count_star_empty_input(self, engine):
        result = engine.execute(
            "SELECT COUNT(*) FROM PhotoObj WHERE objID > 100"
        )
        assert result.rows == [(0,)]

    def test_sum_avg_min_max(self, engine):
        result = engine.execute(
            "SELECT SUM(objID), AVG(objID), MIN(objID), MAX(objID) "
            "FROM PhotoObj"
        )
        assert result.rows == [(210, 10.5, 1, 20)]

    def test_group_by(self, engine):
        result = engine.execute(
            "SELECT type, COUNT(*) AS n FROM PhotoObj GROUP BY type "
            "ORDER BY type"
        )
        assert result.rows == [(0, 7), (1, 7), (2, 6)]

    def test_group_by_with_having(self, engine):
        result = engine.execute(
            "SELECT type, COUNT(*) AS n FROM PhotoObj GROUP BY type "
            "HAVING COUNT(*) > 6 ORDER BY type"
        )
        assert result.rows == [(0, 7), (1, 7)]

    def test_aggregate_over_expression(self, engine):
        result = engine.execute(
            "SELECT MAX(modelMag_g - modelMag_r) FROM PhotoObj"
        )
        assert result.rows == [(1.0,)]

    def test_expression_of_aggregates(self, engine):
        result = engine.execute(
            "SELECT MAX(objID) - MIN(objID) AS spread FROM PhotoObj"
        )
        assert result.rows == [(19,)]

    def test_count_distinct(self, engine):
        result = engine.execute(
            "SELECT COUNT(DISTINCT type) FROM PhotoObj"
        )
        assert result.rows == [(3,)]

    def test_non_grouped_column_rejected(self, engine):
        with pytest.raises(PlanError, match="GROUP BY"):
            engine.execute(
                "SELECT ra, COUNT(*) FROM PhotoObj GROUP BY type"
            )

    def test_aggregate_in_join(self, engine):
        result = engine.execute(
            "SELECT s.specClass, COUNT(*) AS n FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID GROUP BY s.specClass "
            "ORDER BY s.specClass"
        )
        assert result.rows == [(0, 3), (1, 3), (2, 2), (3, 2)]


class TestOrderDistinctLimit:
    def test_order_by_asc(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID < 4 ORDER BY ra"
        )
        assert result.column_values("objID") == [1, 2, 3]

    def test_order_by_desc(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID < 4 ORDER BY ra DESC"
        )
        assert result.column_values("objID") == [3, 2, 1]

    def test_order_by_two_keys(self, engine):
        result = engine.execute(
            "SELECT type, objID FROM PhotoObj ORDER BY type, objID DESC"
        )
        rows = result.rows
        assert rows[0][0] == 0
        types = [row[0] for row in rows]
        assert types == sorted(types)
        first_group = [row[1] for row in rows if row[0] == 0]
        assert first_group == sorted(first_group, reverse=True)

    def test_order_by_non_selected_column(self, engine):
        result = engine.execute(
            "SELECT objID FROM PhotoObj WHERE objID < 4 ORDER BY dec DESC"
        )
        assert result.column_values("objID") == [3, 2, 1]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT type FROM PhotoObj")
        assert sorted(result.rows) == [(0,), (1,), (2,)]

    def test_limit(self, engine):
        result = engine.execute("SELECT objID FROM PhotoObj LIMIT 5")
        assert result.row_count == 5

    def test_top(self, engine):
        result = engine.execute(
            "SELECT TOP 3 objID FROM PhotoObj ORDER BY objID DESC"
        )
        assert result.column_values("objID") == [20, 19, 18]

    def test_limit_zero(self, engine):
        result = engine.execute("SELECT objID FROM PhotoObj LIMIT 0")
        assert result.row_count == 0

    def test_order_by_aggregate(self, engine):
        result = engine.execute(
            "SELECT type, COUNT(*) AS n FROM PhotoObj GROUP BY type "
            "ORDER BY COUNT(*) DESC, type"
        )
        assert result.rows == [(0, 7), (1, 7), (2, 6)]


class TestByteAccounting:
    def test_byte_size_projection(self, engine):
        result = engine.execute("SELECT objID, type FROM PhotoObj")
        assert result.row_width == 8 + 4
        assert result.byte_size == 20 * 12

    def test_star_byte_size_matches_table_width(self, engine, catalog):
        result = engine.execute("SELECT * FROM PhotoObj")
        table = catalog.table("PhotoObj")
        assert result.byte_size == table.size_bytes

    def test_computed_column_is_eight_bytes(self, engine):
        result = engine.execute(
            "SELECT modelMag_g - modelMag_r FROM PhotoObj"
        )
        assert result.row_width == 8

    def test_aggregate_yield(self, engine):
        result = engine.execute("SELECT COUNT(*) FROM PhotoObj")
        assert result.byte_size == 8

    def test_yield_bytes_helper(self, engine):
        assert engine.yield_bytes("SELECT COUNT(*) FROM PhotoObj") == 8

    def test_sources_recorded(self, engine):
        result = engine.execute("SELECT p.ra FROM PhotoObj p")
        assert result.columns[0].source == ("PhotoObj", "ra")

    def test_missing_result_column_raises(self, engine):
        result = engine.execute("SELECT objID FROM PhotoObj")
        with pytest.raises(ExecutionError):
            result.column_values("ghost")


class TestGroupByExpressions:
    def test_group_by_computed_expression(self, engine):
        result = engine.execute(
            "SELECT type % 2 AS parity, COUNT(*) AS n FROM PhotoObj "
            "GROUP BY type % 2 ORDER BY parity"
        )
        # types 0,1,2 with counts 7,7,6 -> parity 0: 7+6, parity 1: 7.
        assert result.rows == [(0, 13), (1, 7)]

    def test_group_by_scalar_function(self, engine):
        result = engine.execute(
            "SELECT FLOOR(ra / 100), COUNT(*) FROM PhotoObj "
            "GROUP BY FLOOR(ra / 100) ORDER BY FLOOR(ra / 100)"
        )
        # ra = 0..190: buckets 0 (ra<100 -> 10 rows) and 1 (10 rows).
        assert result.rows == [(0, 10), (1, 10)]

    def test_having_on_aggregate_of_expression(self, engine):
        result = engine.execute(
            "SELECT type, COUNT(*) FROM PhotoObj GROUP BY type "
            "HAVING SUM(modelMag_g - modelMag_r) > 6.5 ORDER BY type"
        )
        # Each row contributes exactly 1.0; counts 7,7,6 -> sums 7,7,6.
        assert result.rows == [(0, 7), (1, 7)]
