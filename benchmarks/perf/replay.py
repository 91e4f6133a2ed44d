"""The four in-process replay workloads: stream x2, sweep, fleet + faults.

Each workload has the same four phases, driven by
:mod:`benchmarks.perf.harness`:

* ``setup`` builds everything from the seed (repeated, ``setup_s`` is
  the median);
* ``run_round`` is one timed round of fixed work through the repo's own
  drivers (``Simulator.run_stream``, ``Simulator.run``,
  ``simulate_fleet``), untouched and untraced;
* ``verify`` cross-checks the rounds' totals against reference replays;
* ``run_traced`` drives the same inputs through a benchmark-owned
  per-query loop that records a span around each call into a layer, and
  must land on the untraced totals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import CompiledTrace, DecisionPipeline
from repro.core.yield_model import (
    attribute_yield_columns,
    attribute_yield_tables,
)
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.fleet.cooperative import split_trace
from repro.fleet.ring import ConsistentHashRing
from repro.sim.multi import ClientSite, FleetResult, simulate_fleet
from repro.sim.results import SimulationResult
from repro.sim.runner import build_policy, build_transport
from repro.sim.simulator import Simulator
from repro.sim.streaming import SampledSeries
from repro.sqlengine.statistics import YieldEstimator
from repro.workload.trace import PreparedQuery, PreparedTrace

from benchmarks.perf.common import (
    Check,
    Heartbeat,
    Round,
    Totals,
    check_equal,
    peak_rss_mb,
    result_checks,
    totals_of,
)
from benchmarks.perf.inputs import (
    StratifiedStream,
    TraceShape,
    backend_faults,
    block_configs,
    build_federation,
    capacity_for,
    derive_seed,
    iter_records,
    prepared_trace,
    shard_faults,
    warm_up,
    yield_source,
)
from benchmarks.perf.spans import NO_QUERY, SpanLog


@dataclass
class Traced:
    """What a traced run hands back to the harness."""

    metrics: Dict[str, float]
    checks: List[Check]
    queries: int
    #: Wall of the spanned per-query loops, and of the untraced drive of
    #: the same inputs it is compared against.
    traced_wall_s: float
    untraced_wall_s: float
    #: Wall of spanned work outside those loops (trace lowering, the
    #: in-process ``submit`` pass); span self times must add up to
    #: ``traced_wall_s`` plus this.
    other_spanned_s: float = 0.0


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """``<span>_s`` (summed self time) and ``<span>_count`` per span name."""
    metrics: Dict[str, float] = {}
    for name, (seconds, count) in log.self_times().items():
        metrics[f"{name}_s"] = seconds
        metrics[f"{name}_count"] = float(count)
    return metrics


def decision_metrics(totals: Totals) -> Dict[str, float]:
    queries = totals["queries"]
    return {
        "core.hit_share": totals["served"] / queries if queries else 0.0,
        "core.loads": float(totals["loads"]),
        "core.evictions": float(totals["evictions"]),
    }


class Workload:
    """Common shape of a benchmark workload (see module docstring)."""

    name = ""
    #: Wall seconds one round takes on the 2-core reference box; the
    #: harness turns ``--seconds`` into a whole number of rounds with it,
    #: so the work done is a function of the arguments, not of the clock.
    nominal_round_s = 1.0
    #: Queries per latency slice (see :class:`Heartbeat`).
    slice_len = 100
    #: Every round starts from the same state, so totals repeat exactly.
    rounds_identical = True
    #: The latency units of a round run back to back (a closed loop or
    #: a replay), so their times add up to the round's wall.
    units_tile_round = True

    @property
    def latency_unit(self) -> str:
        """What one latency sample times, for the result document."""
        return f"slice of {self.slice_len} consecutive queries"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started (processes, sockets)."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def verify(self, rounds: Sequence[Round]) -> List[Check]:
        """Cross-checks against reference replays, after the rounds."""
        return []

    def run_traced(self, log: SpanLog) -> Traced:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# stream_estimated / stream_exact
# ---------------------------------------------------------------------------


class StreamWorkload(Workload):
    """``StratifiedStream`` -> ``Simulator.run_stream``: plan, measure,
    attribute, compile and decide every query on the fly."""

    mode = "estimated"
    policy_name = "rate-profile"
    granularity = "table"
    cache_fraction = 0.1
    shape = TraceShape(cycles=4, block_len=125)

    def setup(self) -> None:
        self.federation = build_federation()
        self.estimator: Optional[YieldEstimator] = None
        if self.mode == "estimated":
            self.estimator = YieldEstimator.from_catalog(self.federation)
        self.capacity = capacity_for(self.federation, self.cache_fraction)
        self.trace_seed = derive_seed(self.seed, self.name, "trace")
        # Touch every layer once so lazy per-federation state (shared
        # object catalog, column vectors) exists before the first round.
        self._fresh_mediator()

    def _fresh_mediator(
        self, instrumentation: Optional[Instrumentation] = None
    ) -> Tuple[Mediator, Any]:
        """A mediator with a warm shape cache and a cold exact-SQL LRU.

        Rounds replay the same SQL; a mediator kept across rounds would
        answer every plan lookup of a short trace from its exact-text
        LRU, which real traces (Section 6.1: queries almost never
        repeat) never do.
        """
        mediator = Mediator(
            self.federation, instrumentation=instrumentation
        )
        source = yield_source(self.mode, mediator, self.estimator)
        warm_up(self.seed, mediator, source)
        return mediator, source

    def _policy(self) -> Any:
        return build_policy(
            self.policy_name,
            self.capacity,
            None,
            self.federation,
            self.granularity,
        )

    def run_round(self) -> Round:
        mediator, source = self._fresh_mediator()
        stream = StratifiedStream(
            self.trace_seed, self.shape, mediator, source
        )
        simulator = Simulator(self.federation, self.granularity)
        beat = Heartbeat(self.slice_len)
        policy = beat.wrap(self._policy())
        beat.start()
        start = perf_counter()
        result = simulator.run_stream(stream, policy, record_series="sampled")
        wall = perf_counter() - start
        return Round(
            queries=result.queries,
            wall_s=wall,
            totals=totals_of([result]),
            latencies_ms=beat.drain_ms(),
            checks=result_checks(
                "run_stream", [result], self.shape.num_queries
            ),
        )

    def _materialized(self) -> List[PreparedQuery]:
        mediator, source = self._fresh_mediator()
        return list(
            StratifiedStream(self.trace_seed, self.shape, mediator, source)
        )

    def verify(self, rounds: Sequence[Round]) -> List[Check]:
        """``run_stream`` over the generated stream must equal
        ``Simulator.run`` over the same queries, materialized."""
        trace = PreparedTrace(name=self.name, queries=self._materialized())
        simulator = Simulator(self.federation, self.granularity)
        result = simulator.run(trace, self._policy(), record_series=False)
        checks = result_checks("run", [result], self.shape.num_queries)
        checks.append(
            check_equal(
                "run_stream==run(materialized)",
                rounds[0].totals,
                totals_of([result]),
            )
        )
        return checks

    def run_traced(self, log: SpanLog) -> Traced:
        reference = self.run_round()
        instrumentation = Instrumentation(max_events=0)
        mediator, source = self._fresh_mediator(instrumentation)
        instrumentation.counters.clear()
        planner = getattr(mediator, "_shapes", None)
        shape_hits_before = getattr(planner, "shape_hits", 0)
        pipeline = DecisionPipeline(self.federation, self.granularity)
        policy = self._policy()
        result = SimulationResult(
            policy_name=policy.name,
            granularity=self.granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        series = SampledSeries()
        records = iter_records(block_configs(self.trace_seed, self.shape))
        loop = log.name_id("sim.loop_self")
        generate = log.name_id("workload.generate")
        plan_id = log.name_id("federation.plan")
        route = log.name_id("federation.route")
        measure = log.name_id("core.yield_measure")
        attribute = log.name_id("core.attribute")
        compile_id = log.name_id("core.compile")
        decide = log.name_id("core.decide")
        account = log.name_id("core.account")
        charge = log.name_id("sim.charge")
        leaf = log.leaf
        clock = perf_counter
        total = self.shape.num_queries

        start = clock()
        for index in range(total):
            root = log.open(loop, -1, index, clock())
            t = clock()
            record = next(records)
            leaf(generate, t, clock(), root, index)
            sql = record.sql
            t = clock()
            plan = mediator.plan(sql)
            leaf(plan_id, t, clock(), root, index)
            t = clock()
            servers = tuple(mediator.servers_for_plan(plan))
            leaf(route, t, clock(), root, index)
            t = clock()
            measured = source.measure(sql, plan, servers)
            leaf(measure, t, clock(), root, index)
            t = clock()
            table_yields = attribute_yield_tables(plan, measured.yield_bytes)
            column_yields = attribute_yield_columns(
                plan, measured.yield_bytes
            )
            leaf(attribute, t, clock(), root, index)
            prepared = PreparedQuery(
                index=record.index,
                sql=sql,
                template=record.template,
                yield_bytes=measured.yield_bytes,
                bypass_bytes=measured.bypass_bytes,
                table_yields=table_yields,
                column_yields=column_yields,
                servers=servers,
            )
            t = clock()
            query = pipeline.query_from_prepared(prepared, index)
            leaf(compile_id, t, clock(), root, index)
            t = clock()
            decision = policy.process(query)
            leaf(decide, t, clock(), root, index)
            t = clock()
            accounting = pipeline.account(
                decision,
                bypass_bytes=prepared.bypass_bytes,
                servers=servers,
            )
            leaf(account, t, clock(), root, index)
            t = clock()
            result.charge(accounting, decision)
            leaf(charge, t, clock(), root, index)
            series.observe(result.breakdown.total_bytes)
            log.close(root, clock())
        traced_wall = clock() - start
        result.queries = total

        totals = totals_of([result])
        metrics = layer_metrics(log)
        metrics.update(decision_metrics(totals))
        counters = instrumentation.counters
        lookups = counters.get("mediator.plan_hits", 0.0) + counters.get(
            "mediator.plan_misses", 0.0
        )
        if lookups:
            metrics["federation.plan_exact_hit_share"] = (
                counters.get("mediator.plan_hits", 0.0) / lookups
            )
            metrics["federation.plan_shape_hit_share"] = (
                getattr(planner, "shape_hits", 0) - shape_hits_before
            ) / lookups
        metrics["sqlengine.cached_shapes"] = float(
            getattr(planner, "cached_shapes", 0)
        )
        checks = list(reference.checks)
        checks.append(
            check_equal("traced==untraced", totals, reference.totals)
        )
        return Traced(
            metrics=metrics,
            checks=checks,
            queries=total,
            traced_wall_s=traced_wall,
            untraced_wall_s=reference.wall_s,
        )


class StreamEstimated(StreamWorkload):
    name = "stream_estimated"
    nominal_round_s = 1.25
    slice_len = 25


class StreamExact(StreamWorkload):
    name = "stream_exact"
    mode = "exact"
    policy_name = "online-by"
    granularity = "column"
    cache_fraction = 0.3
    shape = TraceShape(cycles=2, block_len=75)
    nominal_round_s = 1.6
    slice_len = 10


# ---------------------------------------------------------------------------
# sweep_compiled
# ---------------------------------------------------------------------------

SWEEP_POLICIES = ("rate-profile", "online-by", "space-eff-by", "gds", "static")
SWEEP_FRACTIONS = (0.1, 0.3)


def cell_name(policy: str, fraction: float) -> str:
    return f"{policy}-{fraction}"


class CompiledWorkload(Workload):
    """Set-up shared by the workloads that replay a compiled trace."""

    granularity = "column"
    shape = TraceShape(cycles=2, block_len=250)

    def setup(self) -> None:
        self.federation: Federation = build_federation()
        self.trace = prepared_trace(
            derive_seed(self.seed, "compiled", "trace"),
            self.shape,
            self.federation,
        )
        self.pipeline = DecisionPipeline(self.federation, self.granularity)
        self.compiled: CompiledTrace = self.pipeline.compile_trace(self.trace)

    def spanned_compile(self, log: SpanLog) -> float:
        """Span the trace lowering the way set-up runs it; returns its
        wall seconds."""
        compile_id = log.name_id("core.compile")
        pipeline = DecisionPipeline(self.federation, self.granularity)
        begin = perf_counter()
        for index, prepared in enumerate(self.trace):
            start = perf_counter()
            pipeline.query_from_prepared(prepared, index)
            log.leaf(compile_id, start, perf_counter(), -1, index)
        return perf_counter() - begin


class SweepCompiled(CompiledWorkload):
    name = "sweep_compiled"
    nominal_round_s = 1.2
    slice_len = 100

    def cells(self) -> List[Tuple[str, float, int]]:
        return [
            (policy, fraction, capacity_for(self.federation, fraction))
            for fraction in SWEEP_FRACTIONS
            for policy in SWEEP_POLICIES
        ]

    def _policy(self, name: str, capacity: int) -> Any:
        return build_policy(
            name, capacity, self.compiled, self.federation, self.granularity
        )

    def run_round(self) -> Round:
        simulator = Simulator(self.federation, self.granularity)
        beat = Heartbeat(self.slice_len)
        results: List[SimulationResult] = []
        cell_walls: Dict[str, float] = {}
        latencies: List[float] = []
        wall = 0.0
        for policy_name, fraction, capacity in self.cells():
            policy = beat.wrap(self._policy(policy_name, capacity))
            beat.start()
            start = perf_counter()
            result = simulator.run(
                self.compiled, policy, record_series=False
            )
            elapsed = perf_counter() - start
            latencies.extend(beat.drain_ms())
            wall += elapsed
            cell_walls[cell_name(policy_name, fraction)] = elapsed
            results.append(result)
        return Round(
            queries=sum(result.queries for result in results),
            wall_s=wall,
            totals=totals_of(results),
            latencies_ms=latencies,
            checks=self._cell_checks(results),
            detail={"cell_walls": cell_walls},
        )

    def _cell_checks(self, results: List[SimulationResult]) -> List[Check]:
        checks = result_checks("cell", results, len(self.compiled))
        sequences = {result.sequence_bytes for result in results}
        checks.append(
            Check(
                "sequence_bytes equal across cells",
                sequences == {float(self.compiled.sequence_bytes)},
                repr(sorted(sequences)),
            )
        )
        return checks

    def run_traced(self, log: SpanLog) -> Traced:
        reference = self.run_round()
        compile_wall = self.spanned_compile(log)
        pipeline = self.pipeline
        loop = log.name_id("sim.loop_self")
        decide = log.name_id("core.decide")
        account = log.name_id("core.account")
        charge = log.name_id("sim.charge")
        leaf = log.leaf
        clock = perf_counter
        events = self.compiled.events
        results: List[SimulationResult] = []
        traced_wall = 0.0
        for policy_name, _fraction, capacity in self.cells():
            policy = self._policy(policy_name, capacity)
            result = SimulationResult(
                policy_name=policy.name,
                granularity=self.granularity,
                capacity_bytes=policy.capacity_bytes,
                sequence_bytes=float(self.compiled.sequence_bytes),
            )
            start = clock()
            for index, event in enumerate(events):
                root = log.open(loop, -1, index, clock())
                t = clock()
                decision = policy.process(event.query)
                leaf(decide, t, clock(), root, index)
                t = clock()
                accounting = pipeline.account(
                    decision,
                    bypass_bytes=event.bypass_bytes,
                    servers=event.servers,
                )
                leaf(account, t, clock(), root, index)
                t = clock()
                result.charge(accounting, decision)
                leaf(charge, t, clock(), root, index)
                log.close(root, clock())
            traced_wall += clock() - start
            result.queries = len(events)
            results.append(result)

        totals = totals_of(results)
        metrics = layer_metrics(log)
        metrics.update(decision_metrics(totals))
        for cell, seconds in reference.detail["cell_walls"].items():
            metrics[f"sim.run_qps.{cell}"] = len(events) / seconds
        checks = list(reference.checks)
        checks.extend(self._cell_checks(results))
        checks.append(
            check_equal("traced==untraced", totals, reference.totals)
        )
        return Traced(
            metrics=metrics,
            checks=checks,
            queries=totals["queries"],
            traced_wall_s=traced_wall,
            untraced_wall_s=reference.wall_s,
            other_spanned_s=compile_wall,
        )


# ---------------------------------------------------------------------------
# fleet_faults
# ---------------------------------------------------------------------------


class FleetFaults(CompiledWorkload):
    name = "fleet_faults"
    nominal_round_s = 0.42
    slice_len = 50
    policy_name = "rate-profile"
    cache_fraction = 0.3
    shards = 8

    def setup(self) -> None:
        super().setup()
        self.capacity = capacity_for(self.federation, self.cache_fraction)
        self.faults = backend_faults(
            derive_seed(self.seed, self.name, "backend"), len(self.compiled)
        )
        # Shard traces are split (and compiled, into the per-federation
        # memo) once here, so the timed fleet replays skip lowering.
        self.shard_traces = split_trace(self.trace, self.shards)
        for shard_trace in self.shard_traces:
            self.pipeline.compile_trace(shard_trace)
        self.shard_names = [
            trace.name.rsplit(".", 1)[-1] for trace in self.shard_traces
        ]
        rng_seed = derive_seed(self.seed, self.name, "shards")
        self.ring_seed = rng_seed
        self.dark_shard = self.shard_names[rng_seed % self.shards]
        self.shard_schedule = shard_faults(
            rng_seed,
            self.dark_shard,
            max(len(trace) for trace in self.shard_traces),
        )

    def _policy(self, trace: Any, capacity: int) -> Any:
        return build_policy(
            self.policy_name,
            capacity,
            trace,
            self.federation,
            self.granularity,
        )

    def _clients(self) -> List[ClientSite]:
        """Fresh per-shard policies over the set-up's shard traces; the
        fleet shares the cache fraction (0.3 of the database in total)."""
        per_shard = max(1, self.capacity // self.shards)
        return [
            ClientSite(
                name=name, trace=trace, policy=self._policy(trace, per_shard)
            )
            for name, trace in zip(self.shard_names, self.shard_traces)
        ]

    def _run_resilient(self, policy: Any) -> SimulationResult:
        """What ``run_single(..., faults=...)`` does, with the policy
        built here so the heartbeat can ride on it."""
        simulator = Simulator(self.federation, self.granularity)
        return simulator.run(
            self.compiled,
            policy,
            record_series=False,
            transport=build_transport(self.faults),
        )

    def _run_fleet(
        self,
        clients: List[ClientSite],
        cooperative: bool,
        ring: Optional[ConsistentHashRing] = None,
    ) -> FleetResult:
        return simulate_fleet(
            self.federation,
            clients,
            self.granularity,
            cooperative=cooperative,
            ring=ring,
            ring_seed=self.ring_seed,
            probe_all_siblings=cooperative,
            faults=self.shard_schedule if cooperative else None,
        )

    def run_round(self) -> Round:
        beat = Heartbeat(self.slice_len)
        policy = beat.wrap(self._policy(self.compiled, self.capacity))
        beat.start()
        start = perf_counter()
        resilient = self._run_resilient(policy)
        resilient_wall = perf_counter() - start
        latencies = beat.drain_ms()

        clients = self._clients()
        for client in clients:
            beat.wrap(client.policy)
        beat.start()
        start = perf_counter()
        fleet = self._run_fleet(clients, cooperative=True)
        fleet_wall = perf_counter() - start
        latencies.extend(beat.drain_ms())

        results = [resilient] + list(fleet.per_client.values())
        checks = result_checks("resilient", [resilient], len(self.compiled))
        checks.extend(
            Check(
                f"fleet[{name}].queries",
                result.queries == len(trace),
                f"{result.queries} vs {len(trace)}",
            )
            for (name, result), trace in zip(
                fleet.per_client.items(), self.shard_traces
            )
        )
        return Round(
            queries=sum(result.queries for result in results),
            wall_s=resilient_wall + fleet_wall,
            totals=totals_of(results),
            latencies_ms=latencies,
            detail={
                "resilient_wall": resilient_wall,
                "fleet_wall": fleet_wall,
                "fleet_totals": totals_of(fleet.per_client.values()),
                "resilient_totals": totals_of([resilient]),
                "peer_hits": fleet.peer_hits,
                "unavailable": resilient.unavailable_queries,
            },
            checks=checks,
        )

    def verify(self, rounds: Sequence[Round]) -> List[Check]:
        """Cooperation only re-sources loads: the independent fleet's
        WAN minus the cooperative fleet's is exactly the peer bytes."""
        independent = self._run_fleet(self._clients(), cooperative=False)
        cooperative = rounds[0].detail["fleet_totals"]
        return [
            check_equal(
                "independent-cooperative==peer_bytes",
                int(independent.total_bytes) - cooperative["wan_bytes"],
                cooperative["peer_bytes"],
            )
        ]

    def run_traced(self, log: SpanLog) -> Traced:
        reference = self.run_round()
        compile_wall = self.spanned_compile(log)
        clock = perf_counter
        context = [-1, NO_QUERY]

        # (a) the resilient loop, re-owned: resolve + charge per query,
        # with policy.process spanned from inside resolve.
        pipeline = self.pipeline
        policy = self._policy(self.compiled, self.capacity)
        policy.process = log.wrap("core.decide", policy.process, context)
        transport = build_transport(self.faults)
        result = SimulationResult(
            policy_name=policy.name,
            granularity=self.granularity,
            capacity_bytes=policy.capacity_bytes,
            sequence_bytes=float(self.compiled.sequence_bytes),
        )
        loop = log.name_id("sim.loop_self")
        resolve = log.name_id("faults.resolve")
        charge = log.name_id("sim.charge")
        start = clock()
        for index, event in enumerate(self.compiled.events):
            root = log.open(loop, -1, index, clock())
            span = log.open(resolve, root, index, clock())
            context[0], context[1] = span, index
            resolved = pipeline.resolve(event, policy, transport, tick=index)
            log.close(span, clock())
            t = clock()
            result.charge_resolved(resolved)
            log.leaf(charge, t, clock(), root, index)
            log.close(root, clock())
        traced_wall = clock() - start
        result.queries = len(self.compiled.events)

        # (b) the cooperative fleet cannot be re-owned from outside (its
        # loop is one function), so it runs whole inside one span, with
        # spans around the calls it makes into objects passed to it.
        clients = self._clients()
        ring = ConsistentHashRing(self.shard_names, seed=self.ring_seed)
        start = clock()
        fleet_span = log.open(
            log.name_id("fleet.cooperative_self"), -1, NO_QUERY, start
        )
        context[0], context[1] = fleet_span, NO_QUERY
        ring.owner = log.wrap("fleet.ring_lookup", ring.owner, context)
        for client in clients:
            client.policy.process = log.wrap(
                "core.decide", client.policy.process, context
            )
        fleet = self._run_fleet(clients, cooperative=True, ring=ring)
        end = clock()
        log.close(fleet_span, end)
        traced_wall += end - start

        results = [result] + list(fleet.per_client.values())
        totals = totals_of(results)
        metrics = layer_metrics(log)
        metrics.update(decision_metrics(totals))
        detail = reference.detail
        fleet_totals = totals_of(fleet.per_client.values())
        metrics.update(
            {
                "faults.retries": float(result.retries),
                "faults.retry_bytes": float(result.breakdown.retry_bytes),
                "faults.unavailable": float(result.unavailable_queries),
                "sim.run_resilient_qps": (
                    result.queries / detail["resilient_wall"]
                ),
                "fleet.cooperative_qps": (
                    fleet_totals["queries"] / detail["fleet_wall"]
                ),
                "fleet.peer_hits": float(fleet.peer_hits),
                "fleet.peer_hit_share": (
                    fleet.peer_hits / fleet_totals["loads"]
                    if fleet_totals["loads"]
                    else 0.0
                ),
            }
        )
        checks = list(reference.checks)
        checks.append(
            check_equal("traced==untraced", totals, reference.totals)
        )
        return Traced(
            metrics=metrics,
            checks=checks,
            queries=totals["queries"],
            traced_wall_s=traced_wall,
            untraced_wall_s=reference.wall_s,
            other_spanned_s=compile_wall,
        )
