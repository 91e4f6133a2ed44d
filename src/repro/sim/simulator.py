"""Trace-driven cache simulation.

The simulator replays a prepared trace against one policy and charges
WAN traffic exactly as Section 3 prescribes: bypassed queries cost their
(decomposed) result bytes, loads cost whole-object bytes, cache-served
queries cost nothing on the WAN.  Object sizes and link weights come
from the federation.

Query construction, cost accounting and the per-query step itself live
in :class:`~repro.core.pipeline.DecisionPipeline`; :meth:`Simulator.run`
and :meth:`Simulator.run_stream` only say where the events come from (a
compiled list, a stream) and how the cumulative series is kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.events import CacheQuery
from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import CompiledTrace, DecisionPipeline
from repro.core.policies.base import CachePolicy
from repro.federation.federation import Federation
from repro.obs.spans import Tracer
from repro.sim.results import SimulationResult
from repro.sim.streaming import SampledSeries
from repro.workload.stream import QueryStream
from repro.workload.trace import PreparedQuery, PreparedTrace

if TYPE_CHECKING:
    from repro.faults.transport import ResilientTransport

__all__ = ["Simulator", "SAMPLED_SERIES_POINTS"]

#: Target number of retained points when ``record_series="sampled"``.
SAMPLED_SERIES_POINTS = 512


class Simulator:
    """Replays prepared traces through cache policies."""

    def __init__(
        self,
        federation: Federation,
        granularity: str = "table",
        policy_sees_weights: bool = True,
        pipeline: Optional[DecisionPipeline] = None,
        instrumentation: Optional[Instrumentation] = None,
        tracer: Optional[Tracer] = None,
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
                Disabled tracers are normalized away; the per-query
                step pays one ``is None`` test per traced site when
                tracing is off.
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
        self.federation = pipeline.federation
        self.granularity = pipeline.granularity
        self.policy_sees_weights = pipeline.policy_sees_weights
        self.objects = pipeline.catalog

    @property
    def instrumentation(self) -> Optional[Instrumentation]:
        return self.pipeline.instrumentation

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
                records none; ``"sampled"`` records roughly
                :data:`SAMPLED_SERIES_POINTS` evenly-strided points
                (plus the final one), bounding memory on long traces.
                The stride is stored as ``result.series_stride``.
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
        pipeline = self.pipeline
        compiled = pipeline.compile_trace(trace)
        total = len(compiled.events)
        stride = 1
        if record_series == "sampled":
            stride = max(1, total // SAMPLED_SERIES_POINTS)
        result = SimulationResult(
            policy_name=policy.name,
            granularity=self.granularity,
            capacity_bytes=policy.capacity_bytes,
            sequence_bytes=float(compiled.sequence_bytes),
            series_stride=stride,
        )
        breakdown = result.breakdown
        cumulative = result.cumulative_bytes
        step = pipeline.step
        for index, event in enumerate(compiled.events):
            step(event, policy, result, index, transport, partial_results)
            if record_series and (
                (index + 1) % stride == 0 or index == total - 1
            ):
                cumulative.append(breakdown.total_bytes)  # repro-lint: allow[RPR007] classic recorder; scale path samples via SampledSeries

        result.queries = total
        return result

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

        The constant-memory counterpart of :meth:`run`: queries are
        lowered one at a time through
        :meth:`~repro.core.pipeline.DecisionPipeline.iter_compiled`,
        charged incrementally into the result, and dropped.  Nothing —
        not the trace, not the compiled events, not the full series —
        is ever held in full, so peak memory is independent of trace
        length.  Decisions and WAN totals are byte-identical to
        :meth:`run` over the same queries (the streaming golden-
        equivalence suite pins this down); only the cumulative series
        may differ in resolution, because a stream of unknown length
        records through an adaptive-stride :class:`SampledSeries`
        (``record_series="sampled"``, the default at scale) instead of
        a fixed precomputed stride.

        Args:
            stream: A re-iterable :class:`~repro.workload.stream.QueryStream`
                or any iterable of prepared queries (single-pass
                iterators are fine — this method takes one pass).
            policy: Any cache policy.
            record_series: ``"sampled"`` (default) keeps a bounded
                adaptive-stride series; ``True`` records every query
                (memory grows with trace length — small traces only);
                ``False`` records none.
            transport: Optional resilient transport, as in :meth:`run`.
            partial_results: As in :meth:`run`.
            sequence_bytes: The trace's no-cache total, when known up
                front (stream metadata supplies it for chunked traces);
                otherwise it is accumulated during the pass.
        """
        pipeline = self.pipeline
        known_sequence: Optional[int] = sequence_bytes
        if known_sequence is None and isinstance(stream, QueryStream):
            known_sequence = stream.sequence_bytes
        result = SimulationResult(
            policy_name=policy.name,
            granularity=self.granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        breakdown = result.breakdown
        cumulative = result.cumulative_bytes
        series = SampledSeries() if record_series == "sampled" else None
        total = 0
        accumulated_sequence = 0

        for index, event in enumerate(pipeline.iter_compiled(stream)):
            accumulated_sequence += event.bypass_bytes
            pipeline.step(
                event, policy, result, index, transport, partial_results
            )
            if series is not None:
                series.observe(breakdown.total_bytes)
            elif record_series is True:
                # Full recording: explicit small-trace opt-in, the
                # stream path's one unbounded structure.
                cumulative.append(breakdown.total_bytes)  # repro-lint: allow[RPR007] classic recorder; scale path samples via SampledSeries
            total += 1

        result.queries = total
        result.sequence_bytes = float(
            known_sequence
            if known_sequence is not None
            else accumulated_sequence
        )
        if series is not None:
            result.cumulative_bytes = series.points()
            result.series_stride = series.stride
        return result
