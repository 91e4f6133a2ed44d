"""Positions until read: the count is exact, the rows are the row
path's, the errors are the tail's — and the result is not built to be
counted.

The reference for every statement is the same statement with numpy
declared absent: every scan filters row at a time, nothing is counted
from positions, and the result is materialised before ``execute``
returns — the executor as it was before scans carried positions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.yield_model import ExactYieldSource
from repro.errors import ExecutionError, PlanError
from repro.federation import Federation, Mediator
from repro.sqlengine import (
    Catalog,
    Column,
    ColumnType,
    QueryEngine,
    TableSchema,
)
from repro.sqlengine import executor, vectorized
from repro.workload.sdss_schema import TINY, build_sdss_catalog
from repro.workload.templates import TEMPLATES, RegionCursor

BIGINT, INT = ColumnType.BIGINT, ColumnType.INT
FLOAT, STRING = ColumnType.FLOAT, ColumnType.STRING


def build_catalog() -> Catalog:
    """L and R share key ``k`` — BIGINT on one side and FLOAT on the
    other, NULLs and duplicates on both — and key ``id``, indexed on L
    only; E is L without rows."""
    catalog = Catalog("positions")
    columns = [
        Column("id", BIGINT),
        Column("k", BIGINT),
        Column("f", FLOAT),
        Column("g", INT),
        Column("s", STRING),
    ]
    catalog.create_table(TableSchema("E", columns))
    left = catalog.create_table(TableSchema("L", columns))
    for i in range(1, 31):
        left.insert(
            [
                i,
                None if i % 7 == 0 else i % 6,
                (i * 5 % 17) * 0.5,
                None if i % 5 == 0 else i % 3,
                "abc"[i % 3] * (1 + i % 2),
            ]
        )
    left.create_index("id")
    right = catalog.create_table(
        TableSchema(
            "R",
            [
                Column("id", BIGINT),
                Column("k", FLOAT),
                Column("h", INT),
            ],
        )
    )
    for i in range(1, 21):
        right.insert(
            [i * 2, None if i % 4 == 0 else float(i % 5), i % 4]
        )
    return catalog


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(build_catalog())


def reference(run):
    """``run()`` on the row path alone; its value or its exception."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "HAVE_NUMPY", False)
        try:
            return run()
        except (PlanError, ExecutionError) as exc:
            return exc


# ----------------------------------------------------------------------
# Generated statements
# ----------------------------------------------------------------------

LEFT_PREDICATES = [
    "l.id = 7",                   # index probe
    "l.id = 12 AND l.f > 1",      # index probe + a remaining predicate
    "l.id = 99",                  # index probe, no match
    "l.f > 3",
    "l.k IS NOT NULL",
    "l.g = 1",
    "l.k + 1 > 3",
    "l.s LIKE 'a%'",              # the vectorizer declines
    "l.id > 1000",                # empty selection
    "l.f BETWEEN 1 AND 6",
    "l.k > 0 OR l.k IS NULL",     # NULL keys, and no key is their fill 0
]
RIGHT_PREDICATES = ["r.h < 3", "r.k > 1.5", "r.id = 8", "r.h = 9"]

#: select list + tail; ``{from_where}`` is spliced in between.
ONE_TABLE_SHAPES = [
    "SELECT l.id, l.k, l.f {fw}",
    "SELECT * {fw}",
    "SELECT l.id, l.f - l.k AS d, 1 {fw}",
    "SELECT l.id, l.f {fw} ORDER BY l.f DESC, l.id",
    "SELECT l.id {fw} ORDER BY l.f - l.k, l.id",
    "SELECT l.id AS x, l.s {fw} ORDER BY x DESC",
    "SELECT l.id {fw} LIMIT 0",
    "SELECT l.id {fw} ORDER BY l.id DESC LIMIT 1",
    "SELECT l.id, l.g {fw} LIMIT 4",
    "SELECT COUNT(*), SUM(l.f), AVG(l.k), MIN(l.s), MAX(l.id) {fw}",
    "SELECT COUNT(DISTINCT l.g), SUM(l.f * 2) {fw}",
    "SELECT l.g, COUNT(*) AS n {fw} GROUP BY l.g ORDER BY l.g",
    "SELECT l.g, l.k, COUNT(*), AVG(l.f) {fw} GROUP BY l.g, l.k",
    "SELECT l.s, MIN(l.f) {fw} GROUP BY l.s",
    "SELECT l.g, COUNT(*) AS n {fw} GROUP BY l.g ORDER BY n DESC, l.g "
    "LIMIT 2",
    "SELECT l.g + 1, COUNT(*) {fw} GROUP BY l.g + 1",
    "SELECT DISTINCT l.g {fw}",
    "SELECT l.g, COUNT(*) AS n {fw} GROUP BY l.g HAVING COUNT(*) > 2",
    "SELECT ABS(l.f), l.id {fw}",
    "SELECT MIN(l.k) + 1 {fw}",
    "SELECT l.id {fw} ORDER BY ABS(l.f), l.id",
]
TWO_TABLE_SHAPES = [
    "SELECT l.id, r.id, l.k {fw}",
    "SELECT l.id, r.h, r.k {fw} ORDER BY r.h, l.id, r.id",
    "SELECT l.id, r.id {fw} LIMIT 3",
    "SELECT COUNT(*), AVG(r.k), MAX(l.f) {fw}",
    "SELECT r.h, COUNT(*) {fw} GROUP BY r.h ORDER BY r.h",
    "SELECT DISTINCT r.h {fw}",
    "SELECT r.h, COUNT(*) AS n {fw} GROUP BY r.h HAVING COUNT(*) > 1",
]
#: FROM + the conjuncts that make the join; ``E`` and ``R`` swap in as
#: an empty and an unindexed left side.
JOINS = [
    ("FROM L l, R r", ["l.k = r.k"]),                 # BIGINT = FLOAT
    ("FROM L l, R r", ["l.id = r.id"]),               # indexed = unindexed
    ("FROM R r, L l", ["l.k = r.k"]),
    ("FROM L l JOIN R r ON l.k = r.k", []),
    ("FROM E l, R r", ["l.k = r.k"]),
    ("FROM L l, R r", ["l.k = r.k", "l.id = r.id"]),  # two-column key
    ("FROM L l, R r", ["l.k = r.k", "l.f > r.h"]),    # residual
    ("FROM L l, R r", ["l.id < 4"]),                  # cartesian
    ("FROM L l LEFT JOIN R r ON l.k = r.k", []),
    ("FROM L l LEFT JOIN R r ON l.k = r.k AND r.h > 1", []),
]


def where(conjuncts):
    return " WHERE " + " AND ".join(conjuncts) if conjuncts else ""


one_table = st.builds(
    lambda shape, table, predicates: shape.format(
        fw=f"FROM {table} l" + where(predicates)
    ),
    st.sampled_from(ONE_TABLE_SHAPES),
    st.sampled_from(["L", "L", "L", "E"]),
    st.lists(st.sampled_from(LEFT_PREDICATES), max_size=2, unique=True),
)
two_table = st.builds(
    lambda shape, join, left, right: shape.format(
        fw=join[0] + where(join[1] + left + right)
    ),
    st.sampled_from(TWO_TABLE_SHAPES),
    st.sampled_from(JOINS),
    st.lists(st.sampled_from(LEFT_PREDICATES), max_size=1),
    st.lists(st.sampled_from(RIGHT_PREDICATES), max_size=1),
)


@settings(max_examples=400, deadline=None)
@given(sql=st.one_of(one_table, two_table))
def test_count_before_rows_and_rows_as_the_row_path(engine, sql):
    expected = reference(lambda: engine.execute(sql).rows)
    assert not isinstance(expected, Exception), expected
    result = engine.execute(sql)
    size = result.byte_size
    count = result.row_count
    assert result.rows == expected
    assert count == len(expected)
    assert size == result.row_width * len(expected)
    assert engine.yield_bytes(sql) == size


def test_null_group_is_counted_once(engine):
    # The NULLs' fill value (0) is no surviving row's key: they are one
    # group, and 0 is none.
    result = engine.execute(
        "SELECT l.k, COUNT(*) FROM L l "
        "WHERE l.k > 0 OR l.k IS NULL GROUP BY l.k"
    )
    assert result.row_count == 6
    assert len(result.rows) == 6


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------

#: Errors that surface only in the tail, after scan and join.
TAIL_ERRORS = [
    ("SELECT l.id, COUNT(*) FROM L l", PlanError),
    ("SELECT SUM(l.f, l.k) FROM L l", PlanError),
    ("SELECT l.id FROM L l ORDER BY nosuch", PlanError),
    ("SELECT l.g, COUNT(*) FROM L l GROUP BY l.g ORDER BY id", PlanError),
    ("SELECT l.s + 1 FROM L l", ExecutionError),
]


@pytest.mark.parametrize("sql, kind", TAIL_ERRORS)
def test_tail_errors_keep_type_and_message(sql, kind):
    catalog = build_catalog()
    engine = QueryEngine(catalog)
    mediator = Mediator(Federation.single_site(catalog, "site"))
    plan = mediator.plan(sql)
    entries = {
        "execute": lambda: engine.execute(sql),
        "yield_bytes": lambda: engine.yield_bytes(sql),
        "measure": lambda: ExactYieldSource(mediator).measure(
            sql, plan, ("site",)
        ),
    }
    for name, run in entries.items():
        expected = reference(run)
        assert type(expected) is kind, name
        with pytest.raises(kind) as raised:
            run()
        assert str(raised.value) == str(expected), name


# ----------------------------------------------------------------------
# The point: the result is not built to be counted
# ----------------------------------------------------------------------

@pytest.mark.skipif(not vectorized.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize(
    "template",
    ["region_photo", "spec_join", "tag_join_spec", "spec_agg", "field_stats"],
)
def test_measure_builds_no_row(template, monkeypatch):
    mediator = Mediator(
        Federation.single_site(build_sdss_catalog(TINY), "sdss")
    )
    source = ExactYieldSource(mediator)
    rng = random.Random(5)
    cursor = RegionCursor(rng)
    built = []
    materialise = executor._materialise

    def spy(plan, scans):
        built.append(plan)
        return materialise(plan, scans)

    monkeypatch.setattr(executor, "_materialise", spy)
    yields = []
    for _ in range(25):
        sql = TEMPLATES[template].build(rng, cursor, TINY)
        plan = mediator.plan(sql)
        measured = source.measure(sql, plan, ("sdss",))
        assert not built, sql
        result = mediator.evaluate(sql, plan)
        assert measured.yield_bytes == result.row_width * len(result.rows)
        assert built.pop() is plan
        yields.append(measured.yield_bytes)
    assert any(yields), "every draw selected nothing"


@pytest.mark.parametrize(
    "sql, row",
    [
        ("SELECT l.id, r.id FROM L l, R r WHERE l.k = r.k", [31, 3, 1.0, 1, "a"]),
        ("SELECT l.g, COUNT(*) FROM L l GROUP BY l.g", [31, 3, 1.0, 7, "a"]),
        ("SELECT l.id FROM L l", [31, 3, 1.0, 1, "a"]),
    ],
)
def test_insert_between_two_identical_queries(sql, row):
    catalog = build_catalog()
    engine = QueryEngine(catalog)
    first = engine.execute(sql)
    before = first.row_count
    catalog.table("L").insert(row)
    second = engine.execute(sql)
    assert second.row_count > before
    assert len(second.rows) == second.row_count
    # The first result still holds the answer of its own moment.
    assert len(first.rows) == before
