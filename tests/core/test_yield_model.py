"""Unit tests for yield attribution (Section 6 rules)."""

import pytest

from repro.core.yield_model import (
    attribute_yield_columns,
    attribute_yield_tables,
    referenced_columns,
    referenced_object_ids,
)
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import SchemaLookup, plan_select

from tests.conftest import make_photo_schema, make_spec_schema


@pytest.fixture
def lookup():
    return SchemaLookup(
        {"PhotoObj": make_photo_schema(), "SpecObj": make_spec_schema()}
    )


def plan(sql, lookup):
    return plan_select(parse(sql), lookup)


PAPER_STYLE_JOIN = (
    "SELECT p.objID, p.ra, p.dec, p.modelMag_g, s.z AS redshift "
    "FROM SpecObj s, PhotoObj p "
    "WHERE p.objID = s.objID AND s.specClass = 2 "
    "AND s.zConf > 0.95 AND p.modelMag_g > 17.0 AND s.z < 0.01"
)


class TestReferencedColumns:
    def test_select_and_where_columns_counted(self, lookup):
        refs = referenced_columns(
            plan("SELECT ra FROM PhotoObj WHERE dec > 0", lookup)
        )
        assert refs == {"PhotoObj": {"ra", "dec"}}

    def test_join_keys_counted_for_both_tables(self, lookup):
        refs = referenced_columns(plan(PAPER_STYLE_JOIN, lookup))
        # Paper: "four columns of each table are involved".
        assert refs["PhotoObj"] == {"objID", "ra", "dec", "modelMag_g"}
        assert refs["SpecObj"] == {"objID", "specClass", "zConf", "z"}

    def test_count_star_references_no_columns(self, lookup):
        refs = referenced_columns(
            plan("SELECT COUNT(*) FROM PhotoObj", lookup)
        )
        assert refs == {"PhotoObj": set()}

    def test_group_by_and_order_by_counted(self, lookup):
        refs = referenced_columns(
            plan(
                "SELECT type, COUNT(*) FROM PhotoObj GROUP BY type "
                "ORDER BY type",
                lookup,
            )
        )
        assert refs == {"PhotoObj": {"type"}}

    def test_having_columns_counted(self, lookup):
        refs = referenced_columns(
            plan(
                "SELECT type, COUNT(*) FROM PhotoObj GROUP BY type "
                "HAVING MAX(ra) > 10",
                lookup,
            )
        )
        assert refs["PhotoObj"] == {"type", "ra"}


class TestTableAttribution:
    def test_paper_example_splits_in_half(self, lookup):
        shares = attribute_yield_tables(plan(PAPER_STYLE_JOIN, lookup), 1000)
        # Four unique attributes each -> half each (the paper's example).
        assert shares["PhotoObj"] == pytest.approx(500.0)
        assert shares["SpecObj"] == pytest.approx(500.0)

    def test_single_table_gets_everything(self, lookup):
        shares = attribute_yield_tables(
            plan("SELECT ra FROM PhotoObj", lookup), 640
        )
        assert shares == {"PhotoObj": 640.0}

    def test_unbalanced_attribute_counts(self, lookup):
        shares = attribute_yield_tables(
            plan(
                "SELECT p.ra, p.dec, p.type, s.z FROM PhotoObj p, SpecObj s "
                "WHERE p.objID = s.objID",
                lookup,
            ),
            600,
        )
        # PhotoObj: ra, dec, type, objID = 4; SpecObj: z, objID = 2.
        assert shares["PhotoObj"] == pytest.approx(400.0)
        assert shares["SpecObj"] == pytest.approx(200.0)

    def test_count_star_table_still_gets_share(self, lookup):
        shares = attribute_yield_tables(
            plan("SELECT COUNT(*) FROM PhotoObj", lookup), 8
        )
        assert shares == {"PhotoObj": 8.0}

    def test_shares_sum_to_yield(self, lookup):
        shares = attribute_yield_tables(plan(PAPER_STYLE_JOIN, lookup), 777)
        assert sum(shares.values()) == pytest.approx(777.0)


class TestColumnAttribution:
    def test_width_proportional_split(self, lookup):
        shares = attribute_yield_columns(
            plan("SELECT objID, type FROM PhotoObj", lookup), 120
        )
        # objID 8 bytes, type 4 bytes -> 2/3 and 1/3.
        assert shares["PhotoObj.objID"] == pytest.approx(80.0)
        assert shares["PhotoObj.type"] == pytest.approx(40.0)

    def test_paper_ratio_rule(self, lookup):
        shares = attribute_yield_columns(plan(PAPER_STYLE_JOIN, lookup), 1.0)
        # Referenced: 4 x 8B PhotoObj cols, SpecObj objID/zConf/z (8B)
        # and specClass (4B) -> total 8*7 + 4 = 60 bytes.
        assert shares["PhotoObj.objID"] == pytest.approx(8 / 60)
        assert shares["SpecObj.specClass"] == pytest.approx(4 / 60)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_count_star_falls_back_to_first_column(self, lookup):
        shares = attribute_yield_columns(
            plan("SELECT COUNT(*) FROM SpecObj", lookup), 8
        )
        assert shares == {"SpecObj.specObjID": 8.0}

    def test_where_only_columns_receive_share(self, lookup):
        shares = attribute_yield_columns(
            plan("SELECT ra FROM PhotoObj WHERE dec > 0", lookup), 16
        )
        assert set(shares) == {"PhotoObj.ra", "PhotoObj.dec"}
        assert shares["PhotoObj.ra"] == pytest.approx(8.0)


class TestReferencedObjectIds:
    def test_table_granularity(self, lookup):
        ids = referenced_object_ids(plan(PAPER_STYLE_JOIN, lookup), "table")
        assert ids == ["SpecObj", "PhotoObj"]

    def test_column_granularity(self, lookup):
        ids = referenced_object_ids(plan(PAPER_STYLE_JOIN, lookup), "column")
        assert "PhotoObj.objID" in ids
        assert "SpecObj.z" in ids
        assert len(ids) == 8

    def test_column_ids_ordered_by_schema_position(self, lookup):
        ids = referenced_object_ids(
            plan("SELECT dec, ra FROM PhotoObj", lookup), "column"
        )
        assert ids == ["PhotoObj.ra", "PhotoObj.dec"]

    def test_count_star_fallback(self, lookup):
        ids = referenced_object_ids(
            plan("SELECT COUNT(*) FROM PhotoObj", lookup), "column"
        )
        assert ids == ["PhotoObj.objID"]


class TestSharedFactsAreReadOnly:
    """What attribution caches per shape is handed to every plan of the
    shape: callers get immutables, and fresh dicts to fill."""

    def test_referenced_columns_cannot_be_edited(self, lookup):
        refs = referenced_columns(plan(PAPER_STYLE_JOIN, lookup))
        with pytest.raises(TypeError):
            refs["PhotoObj"] = frozenset()
        with pytest.raises(AttributeError):
            refs["PhotoObj"].add("type")

    def test_attributions_are_private_dicts(self, lookup):
        join = plan(PAPER_STYLE_JOIN, lookup)
        first = attribute_yield_columns(join, 46.0)
        first.clear()
        assert sum(attribute_yield_columns(join, 46.0).values()) == 46.0
        ids = referenced_object_ids(join, "column")
        ids.clear()
        assert referenced_object_ids(join, "column")

    def test_column_shares_come_in_scope_then_schema_order(self, lookup):
        join = plan(PAPER_STYLE_JOIN, lookup)
        assert list(attribute_yield_columns(join, 1.0)) == (
            referenced_object_ids(join, "column")
        )
        assert list(attribute_yield_columns(join, 1.0)) == [
            "SpecObj.objID",
            "SpecObj.z",
            "SpecObj.zConf",
            "SpecObj.specClass",
            "PhotoObj.objID",
            "PhotoObj.ra",
            "PhotoObj.dec",
            "PhotoObj.modelMag_g",
        ]
