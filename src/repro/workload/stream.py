"""Re-iterable prepared-query streams for constant-memory replay.

A :class:`QueryStream` is the streaming counterpart of
:class:`~repro.workload.trace.PreparedTrace`: a *named, re-iterable*
source of prepared queries that never requires the whole trace in
memory.  Three concrete shapes cover the scale story:

* :class:`MaterializedStream` — adapts an in-memory prepared trace, so
  every classic sweep works unchanged through the streaming APIs;
* :class:`GeneratedStream` — regenerates the seeded workload and
  prepares each query on the fly (exact or estimated yields), holding
  one query at a time; two iterations of the same stream replay
  byte-identical queries because everything downstream of the seed is
  deterministic;
* ``ChunkedTrace`` (in :mod:`repro.workload.chunks`) — reads the
  on-disk chunked format one chunk at a time.

:class:`TenantFanoutStream` is a decorator over any of them: it
re-tags each query with a simulated tenant drawn from a keyed hash,
turning a single-client trace into a deterministic multi-tenant
arrival sequence for the mediator service's load generator.

Streams deliberately do *not* memoize compiled events — the streaming
replay path trades recompilation for flat memory.  Metadata that a
replay needs up front (length, sequence bytes, per-object yield totals
for the static policy) is optional per stream: generated streams know
their length but not their totals; chunked traces know everything from
their manifest.
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.workload.generator import (
    TraceConfig,
    iter_trace_records,
    trace_name,
)
from repro.workload.prepare import iter_prepared, prepared_name
from repro.workload.sdss_schema import SMALL, ScaleProfile
from repro.workload.trace import PreparedQuery, PreparedTrace

if TYPE_CHECKING:  # typing-only: avoid import cycles at runtime
    from repro.core.yield_model import YieldSource
    from repro.federation.mediator import Mediator


class QueryStream(abc.ABC):
    """A named, re-iterable source of prepared queries.

    Iterating must be repeatable: two passes over the same stream yield
    the same queries in the same order (the serial == parallel and
    run-twice determinism guarantees depend on it).
    """

    name: str = ""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[PreparedQuery]:
        """Yield prepared queries in trace order, one at a time."""

    @property
    def num_queries(self) -> Optional[int]:
        """Trace length when known without a pass, else ``None``."""
        return None

    @property
    def sequence_bytes(self) -> Optional[int]:
        """No-cache bypass total when known without a pass, else ``None``."""
        return None

    @property
    def fingerprint(self) -> Optional[str]:
        """Content identity when known without a pass, else ``None``."""
        return None

    def object_totals(self, granularity: str) -> Optional[Dict[str, float]]:
        """Per-object attributed-yield sums when known, else ``None``.

        The static policy needs these before replay starts; streams that
        cannot provide them force the caller to either take a counting
        pass or pick a different policy.
        """
        return None


class MaterializedStream(QueryStream):
    """An in-memory prepared trace viewed as a stream."""

    def __init__(self, trace: PreparedTrace) -> None:
        self._trace = trace
        self.name = trace.name

    def __iter__(self) -> Iterator[PreparedQuery]:
        return iter(self._trace)

    @property
    def num_queries(self) -> Optional[int]:
        return len(self._trace)

    @property
    def sequence_bytes(self) -> Optional[int]:
        return self._trace.sequence_bytes

    @property
    def fingerprint(self) -> Optional[str]:
        if self._trace.fingerprint is None:
            self._trace.compute_fingerprint()
        return self._trace.fingerprint

    def object_totals(self, granularity: str) -> Optional[Dict[str, float]]:
        from repro.core.policies.static_select import (
            accumulate_object_yields,
        )

        return accumulate_object_yields(self._trace, granularity)


class GeneratedStream(QueryStream):
    """Generate-and-prepare on the fly: one query in memory at a time.

    Every iteration restarts the seeded generator, so the stream is
    re-iterable and deterministic.  Preparation cost is paid per pass —
    with estimated yields that is O(plans), which is what makes
    million-query passes affordable.
    """

    def __init__(
        self,
        config: TraceConfig,
        mediator: "Mediator",
        source: "YieldSource",
        profile: ScaleProfile = SMALL,
    ) -> None:
        self.config = config
        self.mediator = mediator
        self.source = source
        self.profile = profile
        self.name = prepared_name(trace_name(config), source)

    def __iter__(self) -> Iterator[PreparedQuery]:
        records = iter_trace_records(self.config, self.profile)
        return iter_prepared(records, self.mediator, self.source)

    @property
    def num_queries(self) -> Optional[int]:
        return self.config.num_queries

    @property
    def fingerprint(self) -> Optional[str]:
        """A *configuration* fingerprint, stable without a data pass.

        Two generated streams with equal configs, profiles, and yield
        modes produce byte-identical queries, so hashing the
        configuration is a sound content identity — without executing
        or estimating a single query.
        """
        basis = {
            "kind": "generated-stream/1",
            "flavor": self.config.flavor,
            "num_queries": self.config.num_queries,
            "seed": self.config.resolved_seed(),
            "mean_dwell": self.config.mean_dwell,
            "cold_prob": self.config.cold_prob,
            "include_crossmatch": self.config.include_crossmatch,
            "theme_weights": self.config.resolved_weights(),
            "profile": self.profile.name,
            "yield_mode": self.source.mode,
        }
        payload = json.dumps(basis, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


class TenantFanoutStream(QueryStream):
    """Fan one stream's queries out across simulated tenants.

    Each query is re-tagged ``tenant-<k>`` where ``k`` comes from
    :func:`repro.faults.engine.uniform_draw` keyed by (seed, query
    position) — the same keyed-hash construction as the fault engine,
    so the assignment depends only on the seed and the position, never
    on iteration count or process state.  Re-iterating replays the
    identical interleave; different seeds give different interleaves
    over the same queries (the conservation suite sweeps several).

    With ``tenants == 1`` the base stream passes through *untouched*
    (original tags kept): that is the single-tenant serial mode whose
    service replay must stay byte-identical to ``run_stream``.
    """

    def __init__(
        self, base: QueryStream, tenants: int, seed: int = 0
    ) -> None:
        if tenants < 1:
            raise ValueError(
                f"tenant fan-out needs >= 1 tenants, got {tenants}"
            )
        self.base = base
        self.tenants = tenants
        self.seed = seed
        self.name = base.name

    def tenant_for(self, position: int) -> str:
        """The tenant tag assigned to the query at ``position``."""
        from repro.faults.engine import uniform_draw

        draw = uniform_draw(self.seed, "service.fanout", position)
        return f"tenant-{int(draw * self.tenants)}"

    def __iter__(self) -> Iterator[PreparedQuery]:
        from dataclasses import replace

        if self.tenants == 1:
            yield from self.base
            return
        for position, prepared in enumerate(self.base):
            yield replace(
                prepared, tenant=self.tenant_for(position)
            )

    @property
    def num_queries(self) -> Optional[int]:
        return self.base.num_queries

    @property
    def sequence_bytes(self) -> Optional[int]:
        return self.base.sequence_bytes

    @property
    def fingerprint(self) -> Optional[str]:
        """Content identity: the base fingerprint keyed by the fan-out.

        Identity (``tenants == 1``) passes the base fingerprint
        through unchanged — the stream *is* the base stream.
        """
        base = self.base.fingerprint
        if base is None:
            return None
        if self.tenants == 1:
            return base
        basis = json.dumps(
            {
                "kind": "tenant-fanout/1",
                "base": base,
                "tenants": self.tenants,
                "seed": self.seed,
            },
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(basis).hexdigest()

    def object_totals(self, granularity: str) -> Optional[Dict[str, float]]:
        return self.base.object_totals(granularity)
