"""The compiled yield program against the tree walk it replaced.

``YieldEstimator`` compiles a query *shape* once and evaluates it on
each query's literal values; ``tests/sqlengine/reference_estimator.py``
keeps the per-query AST walk verbatim.  Same statistics, same float
operations in the same order — so the comparison is ``==``, not
``approx``, on every workload template and on the cases a shape hides
(one ``x = ?`` bound to a number, then to a string).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Catalog, Column, ColumnType, TableSchema
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import SchemaLookup, plan_select
from repro.sqlengine.shapes import ShapePlanner
from repro.sqlengine.statistics import (
    ColumnStatistics,
    TableStatistics,
    YieldEstimator,
)
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.templates import TEMPLATES, RegionCursor

from tests.sqlengine.reference_estimator import (
    ReferenceYieldEstimator,
    reference_selectivity_range,
)


def _estimators(catalog_like):
    stats = {
        table.name: TableStatistics.collect(table)
        for table in catalog_like.tables()
    }
    return YieldEstimator(stats), ReferenceYieldEstimator(stats)


def _assert_same_estimates(sql, planner, lookup, compiled, reference):
    """Through the shape cache and on a private fresh plan, the compiled
    estimate equals the reference walk of a fresh plan, bit for bit."""
    fresh = plan_select(parse(sql), lookup)
    want_rows = reference.estimate_rows(fresh)
    want_yield = reference.estimate_yield(fresh)
    for plan in (planner.plan(sql), plan_select(parse(sql), lookup)):
        assert compiled.estimate_rows(plan) == want_rows, sql
        assert compiled.estimate_yield(plan) == want_yield, sql


# ----------------------------------------------------------------------
# Every workload template
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sdss():
    federation = build_federation(PROFILES["small"])
    return (federation.schema_lookup(),) + _estimators(federation)


@pytest.mark.parametrize("seed", [7, 11, 23])
@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_every_workload_template(sdss, name, seed):
    lookup, compiled, reference = sdss
    planner = ShapePlanner(lookup)
    rng = random.Random(f"{name}:{seed}")
    cursor = RegionCursor(rng)
    for _ in range(25):
        sql = TEMPLATES[name].build(rng, cursor, PROFILES["small"])
        _assert_same_estimates(sql, planner, lookup, compiled, reference)
        cursor.advance()
    assert planner.fallbacks == 0
    assert planner.shape_hits > 0


# ----------------------------------------------------------------------
# What a shape hides: drawn literals over a two-table unit catalog
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def unit():
    catalog = Catalog("unit")
    t = catalog.create_table(
        TableSchema(
            "T",
            [
                Column("id", ColumnType.BIGINT),
                Column("grp", ColumnType.INT),
                Column("v", ColumnType.FLOAT),
                Column("name", ColumnType.STRING),
            ],
        )
    )
    u = catalog.create_table(
        TableSchema(
            "U",
            [Column("id", ColumnType.BIGINT), Column("w", ColumnType.FLOAT)],
        )
    )
    for i in range(1, 121):
        t.insert(
            [i, i % 5, None if i % 9 == 0 else i * 1.5, f"n{i % 7}"]
        )
    for i in range(1, 61):
        u.insert([i * 2, i / 4.0])
    return (SchemaLookup.from_catalog(catalog),) + _estimators(catalog)


#: One entry per structure the estimator distinguishes; ``{0}``.. are
#: literal slots.  Negative draws turn a slot into a unary-minus operand
#: (not a ``Literal``: default selectivity) and change the shape.
SHAPES = [
    "SELECT id FROM T WHERE grp = {0}",
    "SELECT id FROM T WHERE name = {0} AND v <> {1}",
    "SELECT id FROM T WHERE {0} < v AND {1} >= grp",
    "SELECT id FROM T WHERE v BETWEEN {0} AND {1}",
    "SELECT id FROM T WHERE v NOT BETWEEN {0} AND {1}",
    "SELECT id FROM T WHERE grp IN ({0}, NULL, {1}, {2})",
    "SELECT id FROM T WHERE grp NOT IN ({0}, {1})",
    "SELECT id FROM T WHERE NOT (v > {0})",
    "SELECT id FROM T WHERE NOT (v > {0} AND grp = {1})",
    "SELECT id FROM T WHERE v > {0} OR grp = {1} OR name = {2}",
    "SELECT id FROM T WHERE v IS NULL AND grp = {0}",
    "SELECT id FROM T WHERE v IS NOT NULL AND grp <= {0}",
    "SELECT id FROM T WHERE id + {0} > v",
    "SELECT id FROM T WHERE v = NULL OR grp < {0}",
    "SELECT COUNT(*) FROM T WHERE v <= {0}",
    "SELECT grp, COUNT(*) FROM T WHERE v >= {0} GROUP BY grp",
    "SELECT grp, name, MAX(v) FROM T WHERE v < {0} GROUP BY grp, name",
    "SELECT DISTINCT grp FROM T WHERE v <> {0}",
    "SELECT TOP 5 id FROM T WHERE v < {0}",
    "SELECT t.id, u.w FROM T t JOIN U u ON t.id = u.id "
    "WHERE t.v > {0} AND u.w < {1}",
    "SELECT t.id FROM T t, U u WHERE t.id = u.id AND t.v + u.w > {0}",
    "SELECT t.id FROM T t LEFT JOIN U u ON t.id = u.id WHERE t.grp = {0}",
]

_numbers = st.one_of(
    st.integers(min_value=-50, max_value=400),
    st.floats(
        min_value=-50.0, max_value=400.0, allow_nan=False, width=32
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
_strings = st.text(alphabet="abn0123456 '", max_size=4)
_literals = st.lists(
    st.one_of(_numbers, _strings), min_size=3, max_size=3
)


def _render(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    bindings=st.lists(_literals, min_size=2, max_size=3),
)
def test_drawn_literals_match_reference(unit, shape, bindings):
    # One planner per example: the first binding compiles the shape's
    # program, the later ones evaluate it on values of other types.
    lookup, compiled, reference = unit
    planner = ShapePlanner(lookup)
    for values in bindings:
        sql = shape.format(*(_render(value) for value in values))
        _assert_same_estimates(sql, planner, lookup, compiled, reference)
    assert planner.fallbacks == 0


@pytest.mark.parametrize(
    "first, second",
    [
        ("5", "'a'"),  # number, then string, under one ``x = ?``
        ("'a'", "5"),
        ("5", "5.0"),
        ("2.5", "3"),
    ],
)
def test_one_shape_rebound_to_another_type(unit, first, second):
    lookup, compiled, reference = unit
    planner = ShapePlanner(lookup)
    for shape in (
        "SELECT id FROM T WHERE grp = {0}",
        "SELECT id FROM T WHERE v > {0}",
        "SELECT id FROM T WHERE v BETWEEN {0} AND 90",
    ):
        for literal in (first, second, first):
            _assert_same_estimates(
                shape.format(literal), planner, lookup, compiled, reference
            )
        assert planner.fallbacks == 0
    assert planner.shape_hits == 6


def test_program_is_compiled_once_per_shape(unit):
    lookup, compiled, _ = unit
    planner = ShapePlanner(lookup)
    plans = [
        planner.plan(f"SELECT id FROM T WHERE v > {n}") for n in (1, 2, 3)
    ]
    programs = {id(compiled._program(plan)) for plan in plans}
    assert len(programs) == 1
    # A second estimator does not read the first one's program.
    other = YieldEstimator(compiled._stats)
    assert other._program(plans[0]) is not compiled._program(plans[1])


# ----------------------------------------------------------------------
# Overlapping bins only: the same sum as every bin
# ----------------------------------------------------------------------

_bound = st.one_of(
    st.none(), st.floats(allow_nan=False), st.floats(-10.0, 30.0)
)


@settings(max_examples=500, deadline=None)
@given(
    counts=st.lists(st.integers(0, 1000), min_size=1, max_size=40),
    minimum=st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, 5.87e17, -3.0e15, 1e-300]),
    ),
    span=st.one_of(
        st.floats(0.0, 1e6),
        st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 64.0, 1e300]),
    ),
    nulls=st.integers(0, 10),
    low=_bound,
    high=_bound,
    offsets=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_range_sum_equals_every_bin_sum(
    counts, minimum, span, nulls, low, high, offsets
):
    column = ColumnStatistics(
        null_count=nulls,
        distinct_count=max(1, sum(counts)),
        row_count=sum(counts) + nulls,
        minimum=minimum,
        maximum=minimum + span,
        histogram=counts,
    )
    inside = tuple(minimum + span * offset for offset in offsets)
    for lo, hi in ((low, high), inside, (inside[0], high), (low, inside[1])):
        assert column.selectivity_range(
            lo, hi
        ) == reference_selectivity_range(column, lo, hi)
