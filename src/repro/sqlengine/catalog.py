"""The catalog: named tables plus exact object-size metadata.

A catalog is what one federation server exposes.  Besides table lookup it
answers the two questions the bypass-yield cache keeps asking:

* ``object_size(object_id)`` — how many bytes would loading this object
  (a table or a single column) move across the WAN, and how much cache
  space would it occupy;
* enumeration of all cacheable objects at either granularity.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import CatalogError
from repro.sqlengine.schema import DatabaseSchema, TableSchema
from repro.sqlengine.storage import Table


class Catalog:
    """Tables of one database plus size metadata for cacheable objects."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table; raises if the name is taken."""
        if schema.key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.key] = table
        return table

    def add_table(self, table: Table) -> None:
        """Register an already-populated table."""
        if table.schema.key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.schema.key] = table

    def drop_table(self, name: str) -> None:
        try:
            del self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def table_names(self) -> List[str]:
        return [t.name for t in self._tables.values()]

    def schema(self) -> DatabaseSchema:
        """A :class:`DatabaseSchema` snapshot of the current catalog."""
        db = DatabaseSchema(self.name)
        for table in self._tables.values():
            db.add(table.schema)
        return db

    # ------------------------------------------------------------------
    # Cacheable-object metadata
    # ------------------------------------------------------------------

    def total_size_bytes(self) -> int:
        """Total bytes across every table (the 'database size' used when
        expressing cache sizes as a percentage of the database)."""
        return sum(table.size_bytes for table in self._tables.values())

    def object_size(self, object_id: str) -> int:
        """Size in bytes of a cacheable object.

        Object ids follow the convention used throughout the library:
        ``"table"`` for whole-table objects and ``"table.column"`` for
        single-column objects.
        """
        table_name, _, column_name = object_id.partition(".")
        table = self.table(table_name)
        if not column_name:
            return table.size_bytes
        return table.column_size_bytes(column_name)

    def table_objects(self) -> List[str]:
        """Object ids of every table."""
        return [table.name for table in self._tables.values()]

    def column_objects(self) -> List[str]:
        """Object ids of every column of every table."""
        ids: List[str] = []
        for table in self._tables.values():
            for col in table.schema.columns:
                ids.append(f"{table.name}.{col.name}")
        return ids

    def objects(self, granularity: str) -> List[str]:
        """All object ids at ``granularity`` ('table' or 'column')."""
        if granularity == "table":
            return self.table_objects()
        if granularity == "column":
            return self.column_objects()
        raise CatalogError(
            f"unknown granularity {granularity!r}; use 'table' or 'column'"
        )

    def __repr__(self) -> str:
        return f"Catalog({self.name!r}, tables={self.table_names()})"
