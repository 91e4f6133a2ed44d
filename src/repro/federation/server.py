"""A federation member: one database server wrapping a catalog + engine."""

from __future__ import annotations

from typing import List

from repro.errors import FederationError
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import QueryEngine, ResultSet


class DatabaseServer:
    """One site of the federation.

    Servers evaluate (sub)queries locally — this is the "move the program
    to the data" benefit the bypass path preserves — and serve whole
    objects (tables or columns) to the cache on load requests.
    """

    def __init__(self, name: str, catalog: Catalog) -> None:
        if not name:
            raise FederationError("server name must be non-empty")
        self.name = name
        self.catalog = catalog
        self.engine = QueryEngine(catalog)
        self.queries_executed = 0
        self.bytes_shipped = 0

    def execute(self, sql: str) -> ResultSet:
        """Evaluate a query entirely at this server (the bypass path)."""
        result = self.engine.execute(sql)
        self.queries_executed += 1
        self.bytes_shipped += result.byte_size
        return result

    def record_shipment(self, num_bytes: int, queries: int = 1) -> None:
        """Attribute traffic executed on this server's behalf.

        The mediator calls this when it evaluates a subplan against the
        server's catalog itself, so shipped-byte attribution stays in
        one place regardless of where the evaluation ran.
        """
        self.bytes_shipped += num_bytes
        self.queries_executed += queries

    def object_size(self, object_id: str) -> int:
        """Size in bytes of a cacheable object hosted here."""
        return self.catalog.object_size(object_id)

    def fetch_object(self, object_id: str) -> int:
        """Serve a whole object to the cache; returns bytes shipped.

        The simulator does not copy data (the mediator can already reach
        the shared catalog for evaluation); what matters for the economy
        is the exact byte count, which this returns.
        """
        size = self.catalog.object_size(object_id)
        self.bytes_shipped += size
        return size

    def hosts_table(self, table_name: str) -> bool:
        return self.catalog.has_table(table_name)

    def objects(self, granularity: str) -> List[str]:
        """All cacheable object ids at ``granularity`` hosted here."""
        return self.catalog.objects(granularity)

    def __repr__(self) -> str:
        return (
            f"DatabaseServer({self.name!r}, "
            f"tables={self.catalog.table_names()})"
        )
