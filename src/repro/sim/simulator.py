"""Trace-driven cache simulation.

The simulator replays a prepared trace against one policy and charges
WAN traffic exactly as Section 3 prescribes: bypassed queries cost their
(decomposed) result bytes, loads cost whole-object bytes, cache-served
queries cost nothing on the WAN.  Object sizes and link weights come
from the federation.

Query construction, cost accounting and the per-query step itself live
in :class:`~repro.core.pipeline.DecisionPipeline`; :meth:`Simulator.run`
and :meth:`Simulator.run_stream` only say where the events come from (a
compiled list, a stream) and share one replay loop and one series
sampler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.events import CacheQuery
from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import (
    CompiledQuery,
    CompiledTrace,
    DecisionPipeline,
)
from repro.core.policies.base import CachePolicy
from repro.federation.federation import Federation
from repro.obs.spans import SpanTracer
from repro.sim.results import SimulationResult
from repro.sim.streaming import SampledSeries
from repro.workload.stream import QueryStream
from repro.workload.trace import PreparedQuery, PreparedTrace

if TYPE_CHECKING:
    from repro.faults.transport import ResilientTransport

__all__ = ["Simulator"]


class Simulator:
    """Replays prepared traces through cache policies."""

    def __init__(
        self,
        federation: Federation,
        granularity: str = "table",
        policy_sees_weights: bool = True,
        pipeline: Optional[DecisionPipeline] = None,
        instrumentation: Optional[Instrumentation] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        """Args:
            federation: Object metadata, link weights, servers.
            granularity: ``"table"`` or ``"column"``.
            policy_sees_weights: When True (default) policies receive
                link-weighted fetch costs (the BYHR view); when False
                they see raw byte sizes (the BYU simplification).  WAN
                charges are always weighted — the flag only changes what
                the policy knows, enabling the BYHR-vs-BYU ablation.
            pipeline: Optional pre-built decision pipeline (shared with
                other drivers); by default one is constructed over the
                federation's shared object catalog.
            instrumentation: Optional observability sink; per-query
                decision events and stage counters are emitted through
                it (ignored when ``pipeline`` is supplied — the
                pipeline's own sink wins).
            tracer: Optional span tracer threaded into the decision
                path (also ignored when ``pipeline`` is supplied).
                ``None`` turns tracing off; the per-query step then pays
                one ``is None`` test per traced site.
        """
        if pipeline is None:
            pipeline = DecisionPipeline(
                federation,
                granularity,
                policy_sees_weights,
                instrumentation=instrumentation,
                tracer=tracer,
            )
        self.pipeline = pipeline
        self.granularity = pipeline.granularity
        self.objects = pipeline.catalog

    def build_query(self, prepared: PreparedQuery, index: int) -> CacheQuery:
        """Convert one prepared query into the policy-facing event."""
        return self.pipeline.query_from_prepared(prepared, index)

    def run(
        self,
        trace: Union[PreparedTrace, CompiledTrace],
        policy: CachePolicy,
        record_series: Union[bool, str] = True,
        transport: Optional["ResilientTransport"] = None,
        partial_results: bool = False,
    ) -> SimulationResult:
        """Replay ``trace`` through ``policy``, returning full accounting.

        Args:
            trace: The prepared workload, or a stream already compiled
                by :meth:`DecisionPipeline.compile_trace` under this
                simulator's (granularity, cost view).  Prepared traces
                are compiled on entry — memoized, so repeat runs over
                the same trace skip query construction entirely.
            policy: Any cache policy.
            record_series: ``True`` records the cumulative WAN series
                after every query (the Figures 7-8 data); ``False``
                records none; ``"sampled"`` keeps a bounded
                adaptive-stride :class:`SampledSeries` (final point
                included), whose stride is stored as
                ``result.series_stride``.
            transport: Optional resilient transport
                (:class:`~repro.faults.transport.ResilientTransport`)
                placing the WAN behind retries, breakers, and a fault
                schedule.  ``None`` (the default) replays the paper's
                always-up network; the transport should be freshly
                built per run — breakers carry state across queries.
            partial_results: Under faults, answer multi-server queries
                from the reachable servers only instead of failing the
                whole query (degraded-mode serving).
        """
        compiled = self.pipeline.compile_trace(trace)
        return self._replay(
            compiled.events,
            policy,
            record_series,
            transport,
            partial_results,
            compiled.sequence_bytes,
        )

    def run_stream(
        self,
        stream: Union[QueryStream, Iterable[PreparedQuery]],
        policy: CachePolicy,
        record_series: Union[bool, str] = "sampled",
        transport: Optional["ResilientTransport"] = None,
        partial_results: bool = False,
        sequence_bytes: Optional[int] = None,
    ) -> SimulationResult:
        """Replay a prepared-query stream without materializing it.

        The constant-memory counterpart of :meth:`run`, through the
        same loop: queries are lowered one at a time by
        :meth:`~repro.core.pipeline.DecisionPipeline.iter_compiled`,
        charged, and dropped, so peak memory is independent of trace
        length.  ``stream`` is a :class:`~repro.workload.stream.QueryStream`
        or any (even single-pass) iterable of prepared queries;
        ``record_series`` defaults to ``"sampled"`` here, because
        ``True`` grows with the trace.  ``sequence_bytes`` is the
        trace's no-cache total when known up front (chunked-trace
        metadata supplies it); otherwise the pass accumulates it.
        The other arguments are as in :meth:`run`.
        """
        if sequence_bytes is None and isinstance(stream, QueryStream):
            sequence_bytes = stream.sequence_bytes
        return self._replay(
            self.pipeline.iter_compiled(stream),
            policy,
            record_series,
            transport,
            partial_results,
            sequence_bytes,
        )

    def _replay(
        self,
        events: Iterable[CompiledQuery],
        policy: CachePolicy,
        record_series: Union[bool, str],
        transport: Optional["ResilientTransport"],
        partial_results: bool,
        sequence_bytes: Optional[int],
    ) -> SimulationResult:
        """The one per-query loop behind :meth:`run` and :meth:`run_stream`."""
        result = SimulationResult(
            policy_name=policy.name,
            granularity=self.granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        breakdown = result.breakdown
        cumulative = result.cumulative_bytes
        series = SampledSeries() if record_series == "sampled" else None
        step = self.pipeline.step
        accumulated_sequence = 0
        index = -1
        for index, event in enumerate(events):
            accumulated_sequence += event.bypass_bytes
            step(event, policy, result, index, transport, partial_results)
            if series is not None:
                series.observe(breakdown.total_bytes)
            elif record_series:
                cumulative.append(breakdown.total_bytes)  # repro-lint: allow[RPR007] explicit full-series opt-in; "sampled" stays bounded

        result.queries = index + 1
        result.sequence_bytes = float(
            accumulated_sequence if sequence_bytes is None else sequence_bytes
        )
        if series is not None:
            result.cumulative_bytes = series.points()
            result.series_stride = series.stride
        return result
