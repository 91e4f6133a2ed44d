"""Shape-keyed plan caching: literal extraction and template rebinding.

The planner's correctness story is differential: for every query, the
rebound plan must equal the plan a fresh parse-and-plan would build —
including on the real generated workloads, whose templates are exactly
what the cache exists to exploit.  Anything the rebinder cannot align
falls back to the slow path (never wrong, only slower), and the
fallback is observable through the planner's counters.
"""

import pytest

from repro.sqlengine.parser import parse
from repro.sqlengine.planner import plan_select
from repro.sqlengine.shapes import (
    ShapePlanner,
    query_shape,
    statement_literals,
)
from repro.workload.generator import TraceConfig, iter_trace_records
from repro.workload.sdss_schema import PROFILES, build_federation

from tests.conftest import build_catalog


class TestQueryShape:
    def test_literals_replaced_and_extracted_in_order(self):
        shape, values = query_shape(
            "SELECT ra FROM PhotoObj WHERE objID = 5 AND type = 'star'"
        )
        assert values == [5, "star"]
        assert shape.count("?") == 2
        assert "5" not in shape
        assert "star" not in shape

    def test_same_template_same_shape(self):
        first, first_values = query_shape(
            "SELECT ra FROM PhotoObj WHERE objID = 5"
        )
        second, second_values = query_shape(
            "SELECT ra FROM PhotoObj WHERE objID = 907"
        )
        assert first == second
        assert first_values == [5]
        assert second_values == [907]

    def test_top_and_limit_counts_stay_in_shape(self):
        # TOP/LIMIT bake into the parsed statement as plain ints, not
        # Literal nodes, so they are not rebind slots.
        shape, values = query_shape(
            "SELECT TOP 10 ra FROM PhotoObj WHERE objID = 5"
        )
        assert "TOP 10" in shape
        assert values == [5]

    def test_number_decode_preserves_type(self):
        _, values = query_shape(
            "SELECT ra FROM PhotoObj WHERE ra = 5 AND dec = 5.0 "
            "AND type = 1e3"
        )
        assert values == [5, 5.0, 1000.0]
        assert [type(v) for v in values] == [int, float, float]

    def test_string_escapes_unescaped(self):
        _, values = query_shape(
            "SELECT ra FROM PhotoObj WHERE name = 'it''s'"
        )
        assert values == ["it's"]

    def test_negative_sign_stays_in_shape(self):
        # -5 lexes as unary minus + literal 5; the sign is structure,
        # not a literal value.
        minus, minus_values = query_shape(
            "SELECT ra FROM PhotoObj WHERE dec = -5"
        )
        plain, _ = query_shape("SELECT ra FROM PhotoObj WHERE dec = 5")
        assert minus_values == [5]
        assert minus != plain


@pytest.fixture(scope="module")
def lookup():
    return build_federation(PROFILES["small"]).schema_lookup()


class TestShapePlanner:
    @pytest.mark.parametrize("flavor", ["edr", "dr1"])
    def test_differential_equivalence_on_real_workload(
        self, lookup, flavor
    ):
        # Every rebound plan must equal a fresh parse-and-plan.
        planner = ShapePlanner(lookup)
        config = TraceConfig(num_queries=200, flavor=flavor)
        for record in iter_trace_records(config, PROFILES["small"]):
            assert planner.plan(record.sql) == plan_select(
                parse(record.sql), lookup
            ), record.sql
        assert planner.fallbacks == 0
        assert planner.shape_hits > planner.shape_misses

    def test_hit_and_miss_counters(self, lookup):
        planner = ShapePlanner(lookup)
        planner.plan("SELECT ra FROM PhotoObj WHERE objID = 1")
        assert (planner.shape_misses, planner.shape_hits) == (1, 0)
        planner.plan("SELECT ra FROM PhotoObj WHERE objID = 2")
        assert (planner.shape_misses, planner.shape_hits) == (1, 1)
        planner.plan("SELECT dec FROM PhotoObj WHERE objID = 2")
        assert (planner.shape_misses, planner.shape_hits) == (2, 1)

    def test_lru_bound_respected(self, lookup):
        planner = ShapePlanner(lookup, max_shapes=2)
        planner.plan("SELECT ra FROM PhotoObj WHERE objID = 1")
        planner.plan("SELECT dec FROM PhotoObj WHERE objID = 1")
        planner.plan("SELECT type FROM PhotoObj WHERE objID = 1")
        assert len(planner._shapes) <= 2

    def test_evicted_shape_replans_correctly(self, lookup):
        planner = ShapePlanner(lookup, max_shapes=1)
        sql = "SELECT ra FROM PhotoObj WHERE objID = 7"
        expected = plan_select(parse(sql), lookup)
        assert planner.plan(sql) == expected
        planner.plan("SELECT dec FROM PhotoObj WHERE objID = 7")
        assert planner.plan(sql) == expected

    def test_unbindable_shape_falls_back_to_fresh_plan(self, lookup):
        planner = ShapePlanner(lookup)
        sql = "SELECT ra FROM PhotoObj WHERE objID = 3"
        shape, _ = query_shape(sql)
        # Simulate a demoted shape (alignment or verification failed):
        # planning must take the slow path and still be correct.
        planner._shapes[shape] = None
        assert planner.plan(sql) == plan_select(parse(sql), lookup)
        assert planner.fallbacks == 1

    def test_rejects_degenerate_bound(self, lookup):
        with pytest.raises(ValueError, match="max_shapes"):
            ShapePlanner(lookup, max_shapes=0)

    def test_works_on_unit_catalog_lookup(self):
        # Smoke test against the shared fixture schema, including a
        # join template (join edges carry no literals and are reused
        # wholesale across rebinds).
        from repro.sqlengine.planner import SchemaLookup

        lookup = SchemaLookup.from_catalog(build_catalog())
        planner = ShapePlanner(lookup)
        template = (
            "SELECT p.ra, s.z FROM PhotoObj p "
            "JOIN SpecObj s ON p.objID = s.objID WHERE p.objID = {n}"
        )
        for n in (1, 3, 5):
            sql = template.format(n=n)
            assert planner.plan(sql) == plan_select(parse(sql), lookup)
        assert planner.shape_hits == 2


class TestDeferredTrees:
    """A shape hit carries literals and shared facts; its trees are
    rebound on first read, and only then."""

    SQL = "SELECT ra FROM PhotoObj WHERE objID = {n} AND dec < {n}.5"

    def _hit(self, lookup):
        planner = ShapePlanner(lookup)
        for n in (1, 2):  # template, then the verified first rebind
            planner.plan(self.SQL.format(n=n))
        return planner, planner.plan(self.SQL.format(n=3))

    def test_hit_carries_literals_and_builds_nothing(self, lookup):
        planner, plan = self._hit(lookup)
        assert plan.literals == [3, 3.5]
        assert (planner.shape_hits, planner.tree_builds) == (2, 1)

    def test_first_tree_read_builds_once(self, lookup):
        planner, plan = self._hit(lookup)
        fresh = plan_select(parse(self.SQL.format(n=3)), lookup)
        assert plan.scope == fresh.scope
        assert planner.tree_builds == 2
        assert plan.local_predicates == fresh.local_predicates
        assert plan.statement == fresh.statement
        assert planner.tree_builds == 2

    def test_equality_is_of_the_materialized_trees(self, lookup):
        _, plan = self._hit(lookup)
        fresh = plan_select(parse(self.SQL.format(n=3)), lookup)
        other = plan_select(parse(self.SQL.format(n=4)), lookup)
        assert plan == fresh and fresh == plan
        assert plan != other and other != plan
        assert repr(plan) == repr(fresh)

    def test_plans_of_a_shape_share_one_record(self, lookup):
        planner = ShapePlanner(lookup)
        plans = [planner.plan(self.SQL.format(n=n)) for n in range(4)]
        assert len({id(plan.facts) for plan in plans}) == 1
        assert plans[0].literals is None  # the template: a fresh plan
        assert plan_select(
            parse(self.SQL.format(n=0)), lookup
        ).facts is not plans[0].facts

    def test_unknown_attribute_still_raises(self, lookup):
        _, plan = self._hit(lookup)
        with pytest.raises(AttributeError):
            plan.no_such_field


class TestSharedFactsVerification:
    """The first rebind also checks what the shape's record holds."""

    def test_literal_dependent_fact_demotes_the_shape(self, lookup):
        planner = ShapePlanner(lookup)
        sql = "SELECT ra FROM PhotoObj WHERE objID = {n}"
        template = planner.plan(sql.format(n=1))
        # Not a function of the shape: differs on the next literal.
        template.facts.fill(
            "first_literal",
            lambda plan: statement_literals(plan.statement)[0],
            template,
        )
        second = planner.plan(sql.format(n=2))
        assert second == plan_select(parse(sql.format(n=2)), lookup)
        assert second.facts is not template.facts
        assert (planner.shape_hits, planner.fallbacks) == (0, 1)
        assert planner.tree_builds == 0
        planner.plan(sql.format(n=3))
        assert (planner.shape_hits, planner.fallbacks) == (0, 2)

    def test_functions_of_the_literals_compare_by_value(self, lookup):
        sql = "SELECT ra FROM PhotoObj WHERE objID = {a} AND dec < {b}"

        def first_slot(plan):
            return lambda values: values[0]

        def skewed(plan):
            # Zero on the plan it was compiled from, and only there.
            first = statement_literals(plan.statement)[0]
            return lambda values: values[0] - first

        for compute, fallbacks in ((first_slot, 0), (skewed, 1)):
            planner = ShapePlanner(lookup)
            template = planner.plan(sql.format(a=1, b=2))
            template.facts.fill("program", compute, template)
            planner.plan(sql.format(a=3, b=4))
            assert planner.fallbacks == fallbacks

    def test_shape_invariant_facts_verify(self, lookup):
        from repro.core.yield_model import (
            attribute_yield_columns,
            attribute_yield_tables,
        )

        planner = ShapePlanner(lookup)
        sql = (
            "SELECT p.ra, s.z FROM PhotoObj p JOIN SpecObj s "
            "ON p.objID = s.objID WHERE p.dec > {n}"
        )
        template = planner.plan(sql.format(n=1))
        attribute_yield_tables(template, 10.0)
        attribute_yield_columns(template, 10.0)
        hit = planner.plan(sql.format(n=2))
        assert (planner.shape_hits, planner.fallbacks) == (1, 0)
        assert hit.facts is template.facts
        builds = planner.tree_builds
        fresh = plan_select(parse(sql.format(n=2)), lookup)
        assert attribute_yield_columns(hit, 7.0) == attribute_yield_columns(
            fresh, 7.0
        )
        assert planner.tree_builds == builds  # served from the record
