"""Schema objects: columns, tables, and whole-database schemas.

Schemas carry exact byte widths because the bypass-yield model prices
everything in bytes: object (table/column) sizes determine cache space and
fetch costs, and column widths determine how a query's yield is divided
among the objects it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import CatalogError
from repro.sqlengine.types import ColumnType


@dataclass(frozen=True)
class Column:
    """A named, typed column with a fixed storage width in bytes.

    Args:
        name: Column name; matching is case-insensitive but the declared
            case is preserved for display.
        ctype: The scalar type.
        width: Storage bytes per value.  Defaults to the type's natural
            width; override for wide strings (CHAR(n)).
    """

    name: str
    ctype: ColumnType
    width: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")
        if self.width == 0:
            object.__setattr__(self, "width", self.ctype.default_width)
        if self.width <= 0:
            raise CatalogError(
                f"column {self.name!r} must have positive width, got {self.width}"
            )

    @property
    def key(self) -> str:
        """Case-insensitive lookup key."""
        return self.name.lower()


class TableSchema:
    """Ordered collection of columns forming one table's schema."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise CatalogError("table name must be non-empty")
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self.name = name
        self._columns: List[Column] = list(columns)
        self._by_key: Dict[str, Column] = {}
        for col in self._columns:
            if col.key in self._by_key:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {name!r}"
                )
            self._by_key[col.key] = col

    @property
    def key(self) -> str:
        """Case-insensitive lookup key."""
        return self.name.lower()

    @property
    def columns(self) -> Tuple[Column, ...]:
        return tuple(self._columns)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    @property
    def row_width(self) -> int:
        """Total bytes per row across all columns."""
        return sum(col.width for col in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_key

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name.

        Raises:
            CatalogError: if no such column exists.
        """
        try:
            return self._by_key[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def index_of(self, name: str) -> int:
        """Position of ``name`` within the column order."""
        key = name.lower()
        for i, col in enumerate(self._columns):
            if col.key == key:
                return i
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.ctype.value}" for c in self._columns)
        return f"TableSchema({self.name!r}, [{cols}])"


@dataclass
class DatabaseSchema:
    """A named collection of table schemas (one per federation server)."""

    name: str
    tables: Dict[str, TableSchema] = field(default_factory=dict)

    def add(self, table: TableSchema) -> None:
        if table.key in self.tables:
            raise CatalogError(
                f"schema {self.name!r} already has table {table.name!r}"
            )
        self.tables[table.key] = table

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"schema {self.name!r} has no table {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.tables

    def table_names(self) -> List[str]:
        return [t.name for t in self.tables.values()]
