"""Cache-policy interface.

A policy owns a :class:`~repro.core.store.CacheStore` and answers one
question per query: serve it from cache (loading objects first if the
economics justify it) or bypass it to the federation.  The simulator
charges WAN bytes according to the returned :class:`Decision`.
"""

from __future__ import annotations

import abc
from typing import Dict

from repro.core.events import CacheQuery, Decision
from repro.core.store import CacheStore
from repro.core.units import AnyRawBytes
from repro.errors import CacheError


class CachePolicy(abc.ABC):
    """Base class for every caching algorithm in the suite."""

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "abstract"

    #: Whether the policy can bypass queries (False for in-line caches,
    #: which always try to cache what they serve).
    supports_bypass: bool = True

    def __init__(self, capacity_bytes: AnyRawBytes) -> None:
        self.store = CacheStore(capacity_bytes)
        self.queries_seen = 0
        self.queries_served = 0

    @property
    def capacity_bytes(self) -> int:
        return self.store.capacity_bytes

    def process(self, query: CacheQuery) -> Decision:
        """Handle one query; template method wrapping :meth:`decide`."""
        self.queries_seen += 1
        decision = self.decide(query)
        if decision.served_from_cache:
            self.queries_served += 1
            for request in query.objects:
                if request.object_id not in self.store:
                    raise CacheError(
                        f"{self.name}: claimed cache service but "
                        f"{request.object_id!r} is not resident"
                    )
        return decision

    @abc.abstractmethod
    def decide(self, query: CacheQuery) -> Decision:
        """Policy-specific decision logic."""

    def invalidate(self, object_id: str) -> bool:
        """Drop a cached object whose backing data or metadata changed.

        This is the consistency hook of Section 6: SDSS releases are
        immutable, but the server notifies the mediator of metadata
        changes (re-materialized views, rebuilt indices), and the cache
        must discard affected objects.  Returns True when the object was
        resident and has been dropped.
        """
        if object_id not in self.store:
            return False
        self._drop(object_id)
        return True

    def _drop(self, object_id: str) -> None:
        """Remove one resident object and its policy metadata.

        Subclasses with per-object state override this and must keep the
        store bookkeeping (the base behaviour) intact.
        """
        self.store.remove(object_id)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from cache."""
        if self.queries_seen == 0:
            return 0.0
        return self.queries_served / self.queries_seen

    def describe(self) -> Dict[str, object]:
        """Introspection snapshot (used by reports and tests)."""
        return {
            "name": self.name,
            "capacity_bytes": self.capacity_bytes,
            "used_bytes": self.store.used_bytes,
            "resident_objects": len(self.store),
            "queries_seen": self.queries_seen,
            "queries_served": self.queries_served,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity_bytes}, "
            f"used={self.store.used_bytes})"
        )
