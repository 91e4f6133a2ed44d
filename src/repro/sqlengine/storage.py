"""Column-store table storage.

Tables are stored column-wise (one Python list per column).  The layout
mirrors the paper's two caching granularities: an entire table is an
object, and so is each individual column, each with an exact byte size
(``width * row_count``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sqlengine.schema import TableSchema


class Table:
    """In-memory column-store relation.

    Rows are appended through :meth:`insert` / :meth:`insert_many`; reads
    go through :meth:`column_values` (vector access) or :meth:`rows`
    (tuple access).  Each column's ``ColumnType.coercer``, resolved once,
    checks every value on insert, so operators never see ill-typed data.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, List[Any]] = {
            col.key: [] for col in schema.columns
        }
        self._coercers = tuple(col.ctype.coercer for col in schema.columns)
        self._vectors = tuple(self._columns.values())
        self._row_count = 0
        self._materialized: Optional[List[Tuple[Any, ...]]] = None
        self._indexes: Dict[str, Dict[Any, List[int]]] = {}
        #: Monotonic data version; bumped on every insert so derived
        #: caches (e.g. the vectorized executor's column arrays) can
        #: detect staleness without hashing the data.
        self.version = 0

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def size_bytes(self) -> int:
        """Exact table size: sum of column sizes."""
        return self.schema.row_width * self._row_count

    def column_size_bytes(self, column_name: str) -> int:
        """Exact size in bytes of one column."""
        col = self.schema.column(column_name)
        return col.width * self._row_count

    def insert(self, row: Sequence[Any]) -> None:
        """Append one row given in schema column order, each value through
        its column's coercer; a bad value raises and appends nothing."""
        if len(row) != len(self._coercers):
            raise ExecutionError(
                f"table {self.name!r} expects {len(self._coercers)} values, "
                f"got {len(row)}"
            )
        coerced: List[Any] = []
        try:
            for coerce, value in zip(self._coercers, row):
                coerced.append(coerce(value))
        except TypeError as exc:
            col = self.schema.columns[len(coerced)]
            raise ExecutionError(
                f"bad value for {self.name}.{col.name}: {exc}"
            ) from exc
        for vector, value in zip(self._vectors, coerced):
            vector.append(value)
        if self._indexes:
            for col, value in zip(self.schema.columns, coerced):
                index = self._indexes.get(col.key)
                if index is not None and value is not None:
                    index.setdefault(value, []).append(self._row_count)
        self._row_count += 1
        self._materialized = None
        self.version += 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def column_values(self, column_name: str) -> Sequence[Any]:
        """The full value vector of one column (read-only by convention)."""
        key = column_name.lower()
        if key not in self._columns:
            raise ExecutionError(
                f"table {self.name!r} has no column {column_name!r}"
            )
        return self._columns[key]

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate rows as tuples in schema column order."""
        return iter(self.materialized_rows())

    def materialized_rows(self) -> List[Tuple[Any, ...]]:
        """Row tuples, memoized until the next insert.

        The scan path of every query starts here, so repeated workloads
        against the same table reuse one materialization.  Callers must
        not mutate the returned list.
        """
        if self._materialized is None:
            vectors = [
                self._columns[col.key] for col in self.schema.columns
            ]
            self._materialized = list(zip(*vectors)) if vectors else []
        return self._materialized

    def create_index(self, column_name: str) -> None:
        """Build (or rebuild) a hash index on one column.

        The executor consults indexes for equality predicates pushed
        down to a scan; identity-style lookups then touch only matching
        rows instead of the whole table.  Inserts maintain existing
        indexes incrementally.
        """
        col = self.schema.column(column_name)  # validates the name
        index: Dict[Any, List[int]] = {}
        for position, value in enumerate(self._columns[col.key]):
            if value is None:
                continue  # NULL never matches an equality predicate
            index.setdefault(value, []).append(position)
        self._indexes[col.key] = index

    def has_index(self, column_name: str) -> bool:
        return column_name.lower() in self._indexed_columns()

    def _indexed_columns(self) -> List[str]:
        return list(self._indexes)

    def index_positions(
        self, column_name: str, value: Any
    ) -> Optional[List[int]]:
        """Positions of the rows whose ``column_name`` equals ``value``,
        via the index, in row order.

        Returns None when the column is not indexed (caller falls back
        to a scan); an empty list is a definitive no-match answer.
        """
        index = self._indexes.get(column_name.lower())
        if index is None:
            return None
        if value is None:
            return []
        # A copy: inserts append to the index's own lists.
        return list(index.get(value, ()))

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._row_count}, "
            f"bytes={self.size_bytes})"
        )
