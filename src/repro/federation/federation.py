"""Federation assembly: servers, table routing, and global schema lookup."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import FederationError
from repro.federation.network import NetworkModel
from repro.federation.server import DatabaseServer
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.planner import QueryPlan, SchemaLookup
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.storage import Table


class Federation:
    """A SkyQuery-like federation: named servers, each owning tables.

    The federation object doubles as a *global table provider* (``table``
    method) so the mediator can evaluate cross-server joins, and as a
    schema lookup for the planner.
    """

    def __init__(self, network: Optional[NetworkModel] = None) -> None:
        self.network = network if network is not None else NetworkModel()
        self._servers: Dict[str, DatabaseServer] = {}
        self._table_owner: Dict[str, str] = {}

    # -- construction ---------------------------------------------------

    def add_server(
        self, server: DatabaseServer, link_weight: Optional[float] = None
    ) -> None:
        """Register a server; its tables must not collide with existing
        ones (the federation namespace is flat, as in SkyQuery)."""
        if server.name in self._servers:
            raise FederationError(f"server {server.name!r} already exists")
        for table_name in server.catalog.table_names():
            key = table_name.lower()
            if key in self._table_owner:
                owner = self._table_owner[key]
                raise FederationError(
                    f"table {table_name!r} already provided by {owner!r}"
                )
        self._servers[server.name] = server
        for table_name in server.catalog.table_names():
            self._table_owner[table_name.lower()] = server.name
        if link_weight is not None:
            self.network.set_link(server.name, link_weight)

    @classmethod
    def single_site(
        cls, catalog: Catalog, server_name: str = "sdss"
    ) -> "Federation":
        """Convenience: a one-server federation (the paper's trace source
        is the single largest SkyQuery node)."""
        federation = cls()
        federation.add_server(DatabaseServer(server_name, catalog))
        return federation

    # -- lookup ---------------------------------------------------------

    @property
    def servers(self) -> List[DatabaseServer]:
        return list(self._servers.values())

    def server(self, name: str) -> DatabaseServer:
        try:
            return self._servers[name]
        except KeyError:
            raise FederationError(f"no server named {name!r}") from None

    def server_for_table(self, table_name: str) -> DatabaseServer:
        owner = self._table_owner.get(table_name.lower())
        if owner is None:
            raise FederationError(f"no server hosts table {table_name!r}")
        return self._servers[owner]

    def hosting_servers(self, plan: QueryPlan) -> Tuple[str, ...]:
        """Names of the distinct servers a plan's tables live on, in
        scope order."""
        names: List[str] = []
        for entry in plan.scope:
            name = self.server_for_table(entry.table_name).name
            if name not in names:
                names.append(name)
        return tuple(names)

    def server_for_object(self, object_id: str) -> DatabaseServer:
        table_name, _, _ = object_id.partition(".")
        return self.server_for_table(table_name)

    # -- global table provider / schema lookup ---------------------------

    def table(self, name: str) -> Table:
        """Route a table lookup to its owning server's catalog."""
        return self.server_for_table(name).catalog.table(name)

    def tables(self) -> List[Table]:
        result: List[Table] = []
        for server in self._servers.values():
            result.extend(server.catalog.tables())
        return result

    def schema_lookup(self) -> SchemaLookup:
        tables: Dict[str, TableSchema] = {}
        for server in self._servers.values():
            for table in server.catalog.tables():
                tables[table.name] = table.schema
        return SchemaLookup(tables)

    # -- object metadata --------------------------------------------------

    def object_size(self, object_id: str) -> int:
        """Exact byte size of a cacheable object anywhere in the
        federation."""
        return self.server_for_object(object_id).object_size(object_id)

    def fetch_cost(self, object_id: str) -> float:
        """Weighted WAN cost of loading ``object_id`` into the cache."""
        server = self.server_for_object(object_id)
        size = server.object_size(object_id)
        return self.network.cost(server.name, size)

    def objects(self, granularity: str) -> List[str]:
        """All cacheable object ids at ``granularity`` across servers."""
        ids: List[str] = []
        for server in self._servers.values():
            ids.extend(server.objects(granularity))
        return ids

    def total_database_bytes(self) -> int:
        """Combined size of every table in the federation."""
        return sum(
            server.catalog.total_size_bytes()
            for server in self._servers.values()
        )

    def __repr__(self) -> str:
        return f"Federation(servers={sorted(self._servers)})"
