"""Differential testing: the engine vs. an independent Python oracle.

Hypothesis generates random single-table queries (projections, range
and equality predicates, DISTINCT, ORDER BY, LIMIT, simple aggregates);
each is executed by the engine and by hand-written Python over the same
rows, and the results must agree exactly.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Catalog, Column, ColumnType, QueryEngine, TableSchema

ROWS: List[Tuple[int, int, float]] = [
    (i, i % 4, (i * 7 % 23) * 1.5) for i in range(1, 41)
]
COLUMNS = ("id", "grp", "v")


@pytest.fixture(scope="module")
def engine():
    catalog = Catalog("oracle")
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
    table.insert_many(ROWS)
    table.create_index("id")
    return QueryEngine(catalog)


predicates = st.one_of(
    st.tuples(
        st.sampled_from(COLUMNS),
        st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
        st.integers(min_value=-5, max_value=45),
    ),
    st.tuples(
        st.just("id"),
        st.just("between"),
        st.tuples(
            st.integers(min_value=-5, max_value=45),
            st.integers(min_value=-5, max_value=45),
        ),
    ),
)


def apply_predicate(row: Tuple[Any, ...], predicate) -> bool:
    column, op, operand = predicate
    value = row[COLUMNS.index(column)]
    if op == "between":
        low, high = operand
        return low <= value <= high
    comparisons = {
        "<": value < operand,
        "<=": value <= operand,
        ">": value > operand,
        ">=": value >= operand,
        "=": value == operand,
        "<>": value != operand,
    }
    return comparisons[op]


def predicate_sql(predicate) -> str:
    column, op, operand = predicate
    if op == "between":
        low, high = operand
        return f"{column} BETWEEN {low} AND {high}"
    return f"{column} {op} {operand}"


@settings(max_examples=150, deadline=None)
@given(
    projection=st.lists(
        st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True
    ),
    where=st.lists(predicates, max_size=3),
    distinct=st.booleans(),
    order_col=st.one_of(st.none(), st.sampled_from(COLUMNS)),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
)
def test_select_matches_oracle(
    engine, projection, where, distinct, order_col, descending, limit
):
    sql = "SELECT "
    if distinct:
        sql += "DISTINCT "
    sql += ", ".join(projection) + " FROM T"
    if where:
        sql += " WHERE " + " AND ".join(
            predicate_sql(p) for p in where
        )
    # ORDER BY must reference selected columns when DISTINCT is on, and
    # must be a total order for a deterministic comparison: always break
    # ties with every projected column.
    order_terms: List[Tuple[str, bool]] = []
    if order_col is not None and (not distinct or order_col in projection):
        order_terms.append((order_col, descending))
    for column in projection:
        if all(column != existing for existing, _ in order_terms):
            order_terms.append((column, False))
    if order_terms and (distinct or order_col is not None):
        sql += " ORDER BY " + ", ".join(
            f"{col} {'DESC' if desc else 'ASC'}"
            for col, desc in order_terms
        )
        use_order = True
    else:
        use_order = False
    if limit is not None and use_order:
        sql += f" LIMIT {limit}"

    result = engine.execute(sql)

    # Oracle evaluation.
    expected_rows = [
        row for row in ROWS
        if all(apply_predicate(row, p) for p in where)
    ]
    projected = [
        tuple(row[COLUMNS.index(col)] for col in projection)
        for row in expected_rows
    ]
    if distinct:
        seen = set()
        unique: List[Tuple[Any, ...]] = []
        for row in projected:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        projected = unique
        full_rows = projected
    else:
        full_rows = expected_rows
    if use_order:
        def key(i):
            parts = []
            for col, desc in order_terms:
                if col in projection:
                    value = projected[i][projection.index(col)]
                else:
                    value = full_rows[i][COLUMNS.index(col)]
                parts.append(-value if desc else value)
            return tuple(parts)

        order = sorted(range(len(projected)), key=key)
        projected = [projected[i] for i in order]
    if limit is not None and use_order:
        projected = projected[:limit]

    if use_order:
        assert result.rows == projected
    else:
        assert sorted(result.rows) == sorted(projected)


@settings(max_examples=80, deadline=None)
@given(
    where=st.lists(predicates, max_size=2),
    agg_col=st.sampled_from(["id", "v"]),
)
def test_aggregates_match_oracle(engine, where, agg_col):
    where_sql = (
        " WHERE " + " AND ".join(predicate_sql(p) for p in where)
        if where
        else ""
    )
    sql = (
        f"SELECT COUNT(*), SUM({agg_col}), MIN({agg_col}), "
        f"MAX({agg_col}) FROM T{where_sql}"
    )
    result = engine.execute(sql)

    surviving = [
        row for row in ROWS
        if all(apply_predicate(row, p) for p in where)
    ]
    values = [row[COLUMNS.index(agg_col)] for row in surviving]
    expected = (
        len(values),
        sum(values) if values else None,
        min(values) if values else None,
        max(values) if values else None,
    )
    assert result.rows == [pytest.approx(expected)]


@settings(max_examples=60, deadline=None)
@given(where=st.lists(predicates, max_size=2))
def test_group_by_matches_oracle(engine, where):
    where_sql = (
        " WHERE " + " AND ".join(predicate_sql(p) for p in where)
        if where
        else ""
    )
    sql = (
        f"SELECT grp, COUNT(*) FROM T{where_sql} "
        "GROUP BY grp ORDER BY grp"
    )
    result = engine.execute(sql)

    surviving = [
        row for row in ROWS
        if all(apply_predicate(row, p) for p in where)
    ]
    counts = {}
    for row in surviving:
        counts[row[1]] = counts.get(row[1], 0) + 1
    expected = sorted(counts.items())
    assert result.rows == expected


# Join oracle -----------------------------------------------------------

@pytest.fixture(scope="module")
def join_engine():
    catalog = Catalog("join-oracle")
    left = catalog.create_table(
        TableSchema(
            "L",
            [Column("id", ColumnType.BIGINT),
             Column("k", ColumnType.INT)],
        )
    )
    left.insert_many(ROWS_L)
    right = catalog.create_table(
        TableSchema(
            "R",
            [Column("rid", ColumnType.BIGINT),
             Column("k", ColumnType.INT)],
        )
    )
    right.insert_many(ROWS_R)
    return QueryEngine(catalog)


ROWS_L: List[Tuple[int, int]] = [(i, i % 5) for i in range(1, 13)]
ROWS_R: List[Tuple[int, int]] = [(100 + i, i % 4) for i in range(1, 10)]


@settings(max_examples=60, deadline=None)
@given(
    left_cut=st.integers(min_value=0, max_value=13),
    right_cut=st.integers(min_value=100, max_value=110),
    use_left_join=st.booleans(),
)
def test_equi_join_matches_oracle(
    join_engine, left_cut, right_cut, use_left_join
):
    if use_left_join:
        sql = (
            "SELECT l.id, r.rid FROM L l LEFT JOIN R r ON l.k = r.k "
            f"AND r.rid < {right_cut} WHERE l.id < {left_cut}"
        )
    else:
        sql = (
            "SELECT l.id, r.rid FROM L l, R r WHERE l.k = r.k "
            f"AND l.id < {left_cut} AND r.rid < {right_cut}"
        )
    result = join_engine.execute(sql)

    expected = []
    for lid, lk in ROWS_L:
        if not lid < left_cut:
            continue
        matches = [
            rid
            for rid, rk in ROWS_R
            if rk == lk and rid < right_cut
        ]
        if matches:
            expected.extend((lid, rid) for rid in matches)
        elif use_left_join:
            expected.append((lid, None))

    key = lambda row: (row[0], row[1] if row[1] is not None else -1)
    assert sorted(result.rows, key=key) == sorted(expected, key=key)
