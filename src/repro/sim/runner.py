"""Experiment orchestration: policy comparisons and cache-size sweeps.

The sweep surface (policies × cache sizes × traces) is embarrassingly
parallel — every cell is an independent replay of an immutable prepared
trace.  :func:`run_sweep` and :func:`compare_policies` therefore accept
``parallel=True`` to fan the cells out over a
:class:`concurrent.futures.ProcessPoolExecutor`; results are returned in
deterministic (submission) order and are identical to serial mode, so
the flag is purely a wall-clock knob.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import (
    CompiledTrace,
    DecisionPipeline,
    shared_catalog,
)
from repro.core.policies import (
    StaticPolicy,
    accumulate_object_yields,
    choose_static_objects,
    make_policy,
)
from repro.core.policies.base import CachePolicy
from repro.errors import CacheError
from repro.faults import FaultEngine, FaultSchedule, ResilientTransport
from repro.federation.federation import Federation
from repro.obs.spans import SpanTracer
from repro.sim.results import SimulationResult, SweepPoint, SweepResult
from repro.sim.simulator import Simulator
from repro.workload.stream import QueryStream
from repro.workload.trace import PreparedTrace

if TYPE_CHECKING:
    from repro.sim.multi import ClientSite

#: The algorithm line-up of Figures 7-10.
DEFAULT_POLICIES = (
    "rate-profile",
    "online-by",
    "space-eff-by",
    "gds",
    "static",
    "no-cache",
)


def build_policy(
    name: str,
    capacity_bytes: int,
    trace: Union[PreparedTrace, CompiledTrace, QueryStream],
    federation: Federation,
    granularity: str,
    **kwargs,
) -> CachePolicy:
    """Instantiate a policy, handling the offline setup of ``static``.

    The static policy's offline selection needs the *raw* per-object
    yield totals; a compiled trace carries them precomputed
    (``object_totals``), and a query stream supplies them from its
    manifest metadata when it has any (chunked traces do; a bare
    generated stream would need a counting pass and raises instead).
    """
    if name == "static":
        if isinstance(trace, CompiledTrace):
            yields = dict(trace.object_totals)
        elif isinstance(trace, QueryStream):
            totals = trace.object_totals(granularity)
            if totals is None:
                raise CacheError(
                    f"stream {trace.name!r} carries no object totals; "
                    "the static policy needs them up front — use a "
                    "chunked trace or a materialized stream"
                )
            yields = totals
        else:
            yields = accumulate_object_yields(trace, granularity)
        catalog = shared_catalog(federation)
        sizes = {object_id: catalog.size(object_id) for object_id in yields}
        chosen = choose_static_objects(yields, sizes, capacity_bytes)
        return StaticPolicy(capacity_bytes, chosen)
    return make_policy(name, capacity_bytes, **kwargs)


def build_transport(
    faults: FaultSchedule,
    instrumentation: Optional[Instrumentation] = None,
) -> ResilientTransport:
    """A fresh per-run transport over ``faults``.

    Breakers and request ids are per-transport state, so every run
    (every sweep cell) gets its own instance — that is what makes
    serial and parallel execution agree under faults.  When an
    instrumentation sink is given, transport and breaker counters
    (``transport.*``, ``breaker.*``) flow into it.
    """
    hook = instrumentation.count if instrumentation is not None else None
    return ResilientTransport(FaultEngine(faults), on_counter=hook)


def run_single(
    trace: Union[PreparedTrace, CompiledTrace, QueryStream],
    federation: Federation,
    policy_name: str,
    capacity_bytes: int,
    granularity: str = "table",
    record_series: Union[bool, str] = True,
    policy_sees_weights: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    faults: Optional[FaultSchedule] = None,
    partial_results: bool = False,
    tracer: Optional[SpanTracer] = None,
    **kwargs,
) -> SimulationResult:
    """Run one policy over one trace.

    A :class:`~repro.workload.stream.QueryStream` replays through
    :meth:`Simulator.run_stream` (never materialized), anything else
    through :meth:`Simulator.run`.  With ``faults``, the replay runs
    behind a fresh
    :class:`~repro.faults.transport.ResilientTransport` over the
    schedule; per-server observed-downtime counters land in the
    instrumentation sink after the run.  With ``tracer``, the decision
    path (and, under faults, every transport attempt) emits spans.
    """
    simulator = Simulator(
        federation,
        granularity,
        policy_sees_weights,
        instrumentation=instrumentation,
        tracer=tracer,
    )
    policy = build_policy(
        policy_name, capacity_bytes, trace, federation, granularity,
        **kwargs,
    )
    stream = isinstance(trace, QueryStream)
    replay = simulator.run_stream if stream else simulator.run
    if faults is None:
        return replay(trace, policy, record_series=record_series)
    transport = build_transport(faults, instrumentation)
    if tracer is not None:
        transport.attach_tracer(tracer)
    result = replay(
        trace,
        policy,
        record_series=record_series,
        transport=transport,
        partial_results=partial_results,
    )
    if instrumentation is not None:
        downtime = transport.engine.downtime_by_server()
        for server, ticks in sorted(downtime.items()):
            instrumentation.count(f"faults.downtime_ticks.{server}", ticks)
    return result


def build_fleet(
    trace: PreparedTrace,
    shards: int,
    policy_name: str,
    capacity_bytes: int,
    federation: Federation,
    granularity: str = "table",
    prefix: str = "shard",
    **kwargs,
) -> List["ClientSite"]:
    """Split one workload across ``shards`` proxies with own policies.

    Round-robins the trace into per-shard subsequences (overlapping
    object universe — the regime where cooperation pays) and builds an
    independent ``policy_name`` instance of ``capacity_bytes`` for each,
    ready for :func:`repro.sim.multi.simulate_fleet` in either mode.
    Static policies select from their *own shard's* yield totals, just
    as a real deployment would only see its own traffic.
    """
    from repro.fleet.cooperative import split_trace
    from repro.sim.multi import ClientSite

    clients: List[ClientSite] = []
    for shard_trace in split_trace(trace, shards, prefix=prefix):
        policy = build_policy(
            policy_name,
            capacity_bytes,
            shard_trace,
            federation,
            granularity,
            **kwargs,
        )
        clients.append(  # repro-lint: allow[RPR007] bounded by shard count
            ClientSite(
                name=shard_trace.name.rsplit(".", 1)[-1],
                trace=shard_trace,
                policy=policy,
            )
        )
    return clients


# ---------------------------------------------------------------------------
# Process-parallel execution
# ---------------------------------------------------------------------------

#: Per-worker shared state, installed once by the pool initializer so
#: the (large) trace and federation cross the process boundary once per
#: worker instead of once per task.
_WORKER_CONTEXT: Dict[str, object] = {}

#: One replay in a worker: ``body(task, instrumentation, *shared)``.
PoolBody = Callable[..., SimulationResult]


def _init_worker(body: PoolBody, *shared: object) -> None:
    _WORKER_CONTEXT["job"] = (body, shared)


def _run_pooled(task: object) -> SimulationResult:
    body, shared = _WORKER_CONTEXT["job"]
    # Counters-only sink: event bodies stay in the worker, the snapshot
    # (cheap, JSON-safe) rides back on the result for the parent to
    # merge in deterministic task order.
    telemetry = Instrumentation(max_events=0)
    result = body(task, telemetry, *shared)
    result.worker_pid = os.getpid()
    result.telemetry = telemetry.snapshot()
    return result


def run_in_pool(
    body: PoolBody,
    tasks: Sequence[object],
    shared: Tuple[object, ...],
    parallel: bool,
    max_workers: Optional[int],
    instrumentation: Optional[Instrumentation] = None,
) -> Optional[List[SimulationResult]]:
    """Run ``body(task, telemetry, *shared)`` per task across processes.

    Results come back in task order, and each worker's counter snapshot
    merges into ``instrumentation`` in that same order (events stay
    worker-local — only counter/stage aggregates cross the boundary).
    ``shared`` crosses once per worker, through the pool initializer.
    Returns ``None`` when the caller should run serially instead: not
    ``parallel``, fewer than two workers' worth of tasks, or a platform
    that cannot run a process pool (no fork/spawn, unpicklable state).
    """
    if not parallel or len(tasks) < 2:
        return None
    workers = min(max_workers or (os.cpu_count() or 1), len(tasks))
    if workers < 2:
        return None
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(body, *shared),
        ) as pool:
            outcomes = list(pool.map(_run_pooled, tasks))
    except (BrokenProcessPool, pickle.PicklingError, OSError):
        return None
    if instrumentation is not None:
        for outcome in outcomes:
            instrumentation.merge_snapshot(outcome.telemetry)
    return outcomes


def _run_cell(
    task: Tuple[str, int],
    instrumentation: Optional[Instrumentation],
    trace: CompiledTrace,
    federation: Federation,
    granularity: str,
    record_series: Union[bool, str],
    policy_sees_weights: bool,
    faults: Optional[FaultSchedule],
    partial_results: bool,
) -> SimulationResult:
    policy_name, capacity = task
    return run_single(
        trace,
        federation,
        policy_name,
        capacity,
        granularity,
        record_series=record_series,
        policy_sees_weights=policy_sees_weights,
        instrumentation=instrumentation,
        faults=faults,
        partial_results=partial_results,
    )


def _run_cells(
    tasks: Sequence[Tuple[str, int]],
    trace: Union[PreparedTrace, CompiledTrace],
    federation: Federation,
    granularity: str,
    record_series: Union[bool, str],
    policy_sees_weights: bool,
    parallel: bool,
    max_workers: Optional[int],
    instrumentation: Optional[Instrumentation] = None,
    faults: Optional[FaultSchedule] = None,
    partial_results: bool = False,
) -> List[SimulationResult]:
    """Run (policy, capacity) cells, optionally across processes.

    Results come back in task order either way, so parallel and serial
    execution are interchangeable (see :func:`run_in_pool`, which also
    falls back to serial when the platform cannot run a pool).  Serial
    cells emit into ``instrumentation`` directly.

    The trace is compiled once here — serial cells share the memoized
    stream, parallel workers receive the compiled form in their
    initializer — so query construction happens once per sweep rather
    than once per cell.
    """
    compiled = DecisionPipeline(
        federation, granularity, policy_sees_weights
    ).compile_trace(trace)
    shared = (
        compiled,
        federation,
        granularity,
        record_series,
        policy_sees_weights,
        faults,
        partial_results,
    )
    outcomes = run_in_pool(
        _run_cell, tasks, shared, parallel, max_workers, instrumentation
    )
    if outcomes is None:
        outcomes = [
            _run_cell(task, instrumentation, *shared) for task in tasks
        ]
    return outcomes


def compare_policies(
    trace: PreparedTrace,
    federation: Federation,
    capacity_bytes: int,
    granularity: str = "table",
    policies: Sequence[str] = DEFAULT_POLICIES,
    record_series: Union[bool, str] = True,
    policy_sees_weights: bool = True,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
    faults: Optional[FaultSchedule] = None,
    partial_results: bool = False,
) -> Dict[str, SimulationResult]:
    """Run several policies at one cache size (Figures 7-8, Tables 1-2).

    With ``instrumentation``, telemetry aggregates across every cell —
    including parallel workers, whose counter snapshots merge back in
    deterministic policy order.  With ``faults``, every cell replays
    behind its own fresh transport over the same schedule, so the
    comparison stays apples-to-apples and serial == parallel.
    """
    tasks = [(name, capacity_bytes) for name in policies]
    outcomes = _run_cells(
        tasks,
        trace,
        federation,
        granularity,
        record_series,
        policy_sees_weights,
        parallel,
        max_workers,
        instrumentation=instrumentation,
        faults=faults,
        partial_results=partial_results,
    )
    return {name: result for name, result in zip(policies, outcomes)}


def run_sweep(
    trace: PreparedTrace,
    federation: Federation,
    granularity: str = "table",
    fractions: Sequence[float] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
    ),
    policies: Sequence[str] = (
        "rate-profile", "online-by", "space-eff-by", "gds", "static"
    ),
    policy_sees_weights: bool = True,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
    faults: Optional[FaultSchedule] = None,
    partial_results: bool = False,
) -> SweepResult:
    """Total cost vs cache size, 10%-100% of the DB (Figures 9-10).

    With ``parallel=True`` the (fraction × policy) grid fans out over a
    process pool; the returned points are ordered exactly as in serial
    mode (fractions outer, policies inner).  Worker telemetry snapshots
    merge into ``instrumentation`` in that same order.
    """
    database_bytes = federation.total_database_bytes()
    sweep = SweepResult(
        granularity=granularity, database_bytes=database_bytes
    )
    tasks: List[Tuple[str, int]] = []
    cells: List[Tuple[str, float, int]] = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise CacheError(
                f"cache fraction must be in (0, 1], got {fraction}"
            )
        capacity = max(1, int(database_bytes * fraction))
        for name in policies:
            tasks.append((name, capacity))
            cells.append((name, fraction, capacity))
    outcomes = _run_cells(
        tasks,
        trace,
        federation,
        granularity,
        False,
        policy_sees_weights,
        parallel,
        max_workers,
        instrumentation=instrumentation,
        faults=faults,
        partial_results=partial_results,
    )
    for (name, fraction, capacity), result in zip(cells, outcomes):
        sweep.points.append(
            SweepPoint(
                policy_name=name,
                cache_fraction=fraction,
                capacity_bytes=capacity,
                total_bytes=result.total_bytes,
            )
        )
    return sweep
