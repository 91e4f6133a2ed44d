"""The count program against the trees it replaces.

A shape's :class:`~repro.sqlengine.executor.CountProgram` is compiled
once from the shape's first plan and then answers every later query of
the shape from its literal values alone.  For any literals — ints,
floats, a string where a number belongs, ints past 2**53, values that
select nothing — its count and yield, or its error, must be the ones
the query's own plan gives with its rows built, and the ones the row
path gives.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import (
    Catalog,
    Column,
    ColumnType,
    QueryEngine,
    ResultSet,
    SchemaLookup,
    TableSchema,
    executor,
    vectorized,
)
from repro.sqlengine.executor import execute_plan
from repro.sqlengine.shapes import ShapePlanner, plan_literals, query_shape
from repro.workload.sdss_schema import TINY, build_sdss_catalog
from repro.workload.templates import TEMPLATES, THEMES, RegionCursor

THEME_TEMPLATES = sorted({name for entries in THEMES.values() for name, _ in entries})


@pytest.fixture(scope="module")
def catalog():
    return build_sdss_catalog(TINY, include_first=True)


def outcome(run):
    """``run()``'s (row count, bytes), or its error's type and text."""
    try:
        result = run()
        return result.row_count, result.byte_size
    except Exception as exc:  # the row path's TypeError included
        return type(exc), str(exc)


def by_trees(sql, catalog):
    """The statement planned on its own (its plan owns its facts), its
    rows built."""
    result = QueryEngine(catalog).execute(sql)
    return ResultSet(result.columns, result.rows)


def render(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def instantiate(shape, values):
    """``shape`` with each ``?`` replaced by the next value's SQL text."""
    parts = shape.split("?")
    assert len(parts) == len(values) + 1
    text = parts[0]
    for value, part in zip(values, parts[1:]):
        text += render(value) + part
    return text


literal = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.floats(
        min_value=0, max_value=400, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from(["abc", "0"]),                      # a string
    st.integers(min_value=2 ** 53 + 1, max_value=2 ** 70),  # past 2**53
    st.sampled_from([10 ** 9, 123456789.5]),            # selects nothing
)


@pytest.mark.parametrize("template", THEME_TEMPLATES)
@settings(max_examples=40, deadline=None)
@given(draws=st.lists(st.lists(literal, min_size=8, max_size=8), min_size=2, max_size=4))
def test_program_counts_as_the_trees_do(catalog, template, draws):
    sql = TEMPLATES[template].build(random.Random(3), RegionCursor(random.Random(3)), TINY)
    shape, natural = query_shape(sql)
    planner = ShapePlanner(SchemaLookup.from_catalog(catalog))
    # The first query makes the template (and compiles the program);
    # the drawn ones reuse it through shape hits.
    execute_plan(planner.plan(sql), catalog)
    for draw in draws:
        text = instantiate(shape, draw[: len(natural)])
        expected = outcome(lambda: by_trees(text, catalog))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorized, "HAVE_NUMPY", False)
            rowpath = outcome(lambda: by_trees(text, catalog))
        got = outcome(lambda: execute_plan(planner.plan(text), catalog))
        assert got == expected == rowpath, text


@pytest.mark.skipif(not vectorized.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("template", THEME_TEMPLATES)
def test_every_theme_template_counts_without_trees(catalog, template):
    rng = random.Random(11)
    cursor = RegionCursor(rng)
    planner = ShapePlanner(SchemaLookup.from_catalog(catalog))
    for _ in range(6):
        plan = planner.plan(TEMPLATES[template].build(rng, cursor, TINY))
        execute_plan(plan, catalog)
        program = plan.facts.fill(
            "exact_program", lambda plan: None, plan, owner=catalog
        )
        assert program is not None
        assert program(plan_literals(plan)) is not None
    assert planner.shape_hits
    # Each shape's first rebind is checked against a fresh plan; no
    # other hit reads a tree.
    assert planner.tree_builds == planner.cached_shapes


def growing_catalog():
    """``T`` (``id`` indexed) and ``U``, joined on ``k``."""
    catalog = Catalog("growing")
    table = catalog.create_table(
        TableSchema(
            "T",
            [
                Column("id", ColumnType.BIGINT),
                Column("k", ColumnType.INT),
                Column("v", ColumnType.FLOAT),
            ],
        )
    )
    for i in range(1, 21):
        table.insert([i, i % 4, i * 0.5])
    table.create_index("id")
    other = catalog.create_table(
        TableSchema(
            "U", [Column("k", ColumnType.INT), Column("w", ColumnType.FLOAT)]
        )
    )
    for i in range(8):
        other.insert([i % 4, float(i)])
    return catalog


@pytest.mark.parametrize(
    "shape, values, row, grows",
    [
        ("SELECT id FROM T WHERE v > ?", [2.5, 3.5, 4.5], [21, 1, 50.0], 1),
        ("SELECT id, v FROM T WHERE id = ?", [3, 4, 21], [21, 1, 1.0], 1),
        (
            "SELECT t.id, u.w FROM T t, U u WHERE t.k = u.k AND t.v > ?",
            [1.5, 2.5, 3.5],
            [21, 3, 60.0],
            2,
        ),
        (
            "SELECT k, COUNT(*) FROM T WHERE v > ? GROUP BY k",
            [0.5, 1.5, 2.5],
            [21, 9, 70.0],
            1,
        ),
    ],
    ids=["scan", "index", "join", "groups"],
)
def test_count_follows_a_growing_table(shape, values, row, grows):
    catalog = growing_catalog()
    planner = ShapePlanner(SchemaLookup.from_catalog(catalog))
    first, second, third = (instantiate(shape, [value]) for value in values)
    execute_plan(planner.plan(first), catalog)
    execute_plan(planner.plan(second), catalog)
    builds = planner.tree_builds
    stale = by_trees(third, catalog).row_count
    catalog.table("T").insert(row)
    result = execute_plan(planner.plan(third), catalog)
    assert planner.shape_hits == 2
    assert result.row_count == by_trees(third, catalog).row_count
    assert result.row_count == stale + grows
    assert len(result.rows) == result.row_count
    if vectorized.HAVE_NUMPY:
        assert planner.tree_builds == builds + 1  # built for the rows only


@pytest.mark.skipif(not vectorized.HAVE_NUMPY, reason="numpy not installed")
def test_a_declined_count_builds_rows_from_its_one_scan():
    """Keys past 2**53 stay object arrays, so the group count declines;
    the rows are then built from the program's scan, run and reported
    once."""
    catalog = Catalog("wide")
    table = catalog.create_table(
        TableSchema("W", [Column("k", ColumnType.BIGINT), Column("v", ColumnType.INT)])
    )
    table.insert_many([2 ** 60 + i % 3, i] for i in range(12))
    sql = "SELECT k, COUNT(*) FROM W WHERE v > 2 GROUP BY k"
    engine = QueryEngine(catalog)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "HAVE_NUMPY", False)
        expected = engine.execute(sql).rows
    paths = []
    previous = executor.set_scan_observer(lambda table, path: paths.append(path))
    try:
        result = engine.execute(sql)
    finally:
        executor.set_scan_observer(previous)
    assert result.rows == expected and result.row_count == 3
    assert paths == ["vectorized"]


# ----------------------------------------------------------------------
# group_count against the row path
# ----------------------------------------------------------------------

GROUP_COLUMNS = [
    Column("i", ColumnType.INT),
    Column("f", ColumnType.FLOAT),
    Column("b", ColumnType.BIGINT),
]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            # 0 is also the fill value NULLs take in the arrays.
            st.one_of(st.none(), st.integers(-2, 2)),
            st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, 2.0])),
            st.one_of(st.none(), st.integers(0, 1)),
        ),
        max_size=30,
    ),
    keys=st.sampled_from(["i", "f", "i, f", "f, b", "i, f, b", "b, i"]),
    where=st.sampled_from(["", " WHERE i > 0", " WHERE f IS NULL"]),
)
def test_group_count_matches_the_row_path(rows, keys, where):
    catalog = Catalog("groups")
    table = catalog.create_table(TableSchema("G", GROUP_COLUMNS))
    table.insert_many(rows)
    engine = QueryEngine(catalog)
    sql = f"SELECT {keys}, COUNT(*) FROM G{where} GROUP BY {keys}"
    counted = engine.execute(sql).row_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "HAVE_NUMPY", False)
        expected = engine.execute(sql).rows
    assert counted == len(expected)
    if vectorized.HAVE_NUMPY and not where:
        names = [key.strip() for key in keys.split(",")]
        positions = [GROUP_COLUMNS.index(table.schema.column(n)) for n in names]
        assert vectorized.group_count(table, names, None) == len(
            {tuple(row[p] for p in positions) for row in rows}
        )
