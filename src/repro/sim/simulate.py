"""CLI: replay a prepared trace through one or more cache policies.

Usage::

    python -m repro.workload.make_trace -n 2000 --prepare -o edr.jsonl
    python -m repro.sim.simulate --trace edr.jsonl.prepared.jsonl \\
        --policy rate-profile --policy gds --capacity-frac 0.3

The federation is rebuilt from the named scale profile (prepared traces
carry yields and attributions but not object sizes), so the profile must
match the one the trace was prepared against.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.instrumentation import Instrumentation
from repro.core.policies import POLICY_REGISTRY
from repro.errors import ConfigurationError, FaultError
from repro.experiments.common import parse_worker_count
from repro.faults import FaultSchedule, parse_fault_seed
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.federation.server import DatabaseServer
from repro.sim.reporting import format_breakdown
from repro.sim.results import SimulationResult
from repro.sim.runner import compare_policies, run_single
from repro.workload.sdss_schema import (
    PROFILES,
    build_first_catalog,
    build_sdss_catalog,
)
from repro.workload.trace import PreparedTrace

KNOWN_POLICIES = tuple(sorted(POLICY_REGISTRY)) + ("static",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.simulate",
        description="Replay a prepared trace through cache policies.",
    )
    parser.add_argument(
        "--trace", required=True, help="prepared trace (JSONL)"
    )
    parser.add_argument(
        "--profile", default="small", choices=sorted(PROFILES),
        help="scale profile the trace was prepared against",
    )
    parser.add_argument(
        "--policy", action="append", choices=KNOWN_POLICIES,
        help="policy to run (repeatable; default: the paper line-up)",
    )
    parser.add_argument(
        "--granularity", default="table", choices=("table", "column"),
    )
    parser.add_argument(
        "--capacity-frac", type=float, default=0.3,
        help="cache size as a fraction of the database",
    )
    parser.add_argument(
        "--parallel", nargs="?", const="auto", default=None,
        metavar="WORKERS",
        help=(
            "replay policies in parallel worker processes; optionally "
            "give a positive worker count (0/false/no/off forces serial)"
        ),
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "write one JSONL decision trace per policy "
            "(DIR/trace-<policy>.jsonl, with a run-manifest header) for "
            "repro-report; forces serial replay"
        ),
    )
    parser.add_argument(
        "--faults", default=None, metavar="SCHEDULE",
        help=(
            "JSON fault schedule (see repro.faults.FaultSchedule) to "
            "inject: replays behind the resilient transport with "
            "retries, breakers, and retry-traffic accounting"
        ),
    )
    parser.add_argument(
        "--fault-seed", default=None, metavar="SEED",
        help=(
            "override the schedule's deterministic seed with a "
            "non-negative integer (requires --faults)"
        ),
    )
    parser.add_argument(
        "--partial-results", action="store_true",
        help=(
            "under faults, answer multi-server queries from the "
            "reachable servers instead of failing the whole query"
        ),
    )
    parser.add_argument(
        "--serve", action="store_true",
        help=(
            "replay through the mediator service path (admission "
            "control + shared-cache concurrency discipline) instead "
            "of the simulator loop; --serve-tenants 1 is the serial "
            "mode that matches the simulator byte for byte"
        ),
    )
    parser.add_argument(
        "--serve-tenants", default="1", metavar="N",
        help="fan the trace out across N simulated tenants (--serve)",
    )
    parser.add_argument(
        "--serve-seed", default="0", metavar="SEED",
        help="tenant-interleave seed (--serve)",
    )
    parser.add_argument(
        "--port", default="0", metavar="PORT",
        help=(
            "with --serve and a single policy: keep the service's "
            "HTTP endpoint (/healthz, /metrics, /slo) up on PORT "
            "after the replay, until POST /shutdown"
        ),
    )
    parser.add_argument(
        "--max-inflight", default="8", metavar="N",
        help="queries decided per decision-lock hold (--serve)",
    )
    parser.add_argument(
        "--tenant-rate", default="0", metavar="RATE",
        help=(
            "per-tenant admitted queries per arrival tick (--serve; "
            "0/off/none/unlimited disables rate limiting)"
        ),
    )
    parser.add_argument(
        "--queue-depth", default="64", metavar="N",
        help="per-tenant backlog before shedding to bypass (--serve)",
    )
    return parser


def _run_with_traces(
    prepared,
    federation,
    capacity: int,
    granularity: str,
    policies,
    trace_dir: Path,
    faults: Optional[FaultSchedule] = None,
    partial_results: bool = False,
) -> Dict[str, SimulationResult]:
    """Serial per-policy replay, streaming each run to a JSONL trace.

    Decision events must stay in-process to reach the
    :class:`~repro.obs.trace_io.TraceWriter` probe, so this path never
    fans out to workers.  Each policy gets its own counters-only sink
    (``max_events=0`` — the probe sees every event without retention)
    and its own ``trace-<policy>.jsonl`` under ``trace_dir``.
    """
    from repro.obs.manifest import RunManifest, wall_clock_timestamp
    from repro.obs.trace_io import TraceWriter

    trace_dir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, SimulationResult] = {}
    for name in policies:
        manifest = RunManifest(
            workload=prepared.name,
            policy=name,
            granularity=granularity,
            capacity_bytes=capacity,
            source="simulator",
            created_at=wall_clock_timestamp(),
        )
        sink = Instrumentation(max_events=0)
        path = trace_dir / f"trace-{name}.jsonl"
        with TraceWriter(path, manifest) as writer:
            sink.add_probe(writer)
            results[name] = run_single(
                prepared,
                federation,
                name,
                capacity,
                granularity,
                record_series=False,
                instrumentation=sink,
                faults=faults,
                partial_results=partial_results,
            )
        print(f"wrote {writer.events_written} events to {path}")
    return results


def _run_service(
    prepared,
    federation,
    capacity: int,
    granularity: str,
    policies,
    tenants: int,
    seed: int,
    config,
    trace_dir: Optional[Path] = None,
) -> Dict[str, SimulationResult]:
    """Replay each policy through an in-process mediator service.

    All policies share one event loop (the per-federation decision
    lock binds to the loop it first awaits on), each gets a fresh
    service over the shared federation.  ``tenants == 1`` drives
    serially in trace order — the mode the golden-equivalence suite
    pins against ``run_stream``.  With a nonzero ``config.port`` (one
    policy only) the service's HTTP endpoint stays up after the replay
    until ``POST /shutdown``.
    """
    import asyncio

    from repro.obs.manifest import RunManifest, wall_clock_timestamp
    from repro.obs.trace_io import TraceWriter
    from repro.service.loadgen import drive_service, fan_out
    from repro.service.server import MediatorService
    from repro.sim.runner import build_policy
    from repro.workload.stream import MaterializedStream

    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)

    async def run_all() -> Dict[str, SimulationResult]:
        results: Dict[str, SimulationResult] = {}
        for name in policies:
            sink = Instrumentation(max_events=0)
            writer = None
            if trace_dir is not None:
                manifest = RunManifest(
                    workload=prepared.name,
                    policy=name,
                    granularity=granularity,
                    capacity_bytes=capacity,
                    source="service",
                    created_at=wall_clock_timestamp(),
                )
                path = trace_dir / f"trace-{name}.jsonl"
                writer = TraceWriter(path, manifest)
                sink.add_probe(writer)
            policy = build_policy(
                name, capacity, prepared, federation, granularity
            )
            service = MediatorService(
                federation,
                policy,
                config=config,
                granularity=granularity,
                instrumentation=sink,
            )
            stream = fan_out(
                MaterializedStream(prepared), tenants, seed
            )
            await drive_service(
                service, stream, serial=(tenants == 1)
            )
            if config.port != 0:
                await service.start()
                print(f"serving on {service.url}", flush=True)
                await service.serve_until_shutdown()
            await service.close()
            if writer is not None:
                writer.close()
                print(
                    f"wrote {writer.events_written} events to "
                    f"{writer.path}"
                )
            results[name] = service.result()
        return results

    return asyncio.run(run_all())


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.policy:
        policies = tuple(args.policy)
    else:
        policies = (
            "rate-profile", "online-by", "space-eff-by", "gds",
            "static", "no-cache",
        )
    if not 0.0 < args.capacity_frac <= 1.0:
        print("capacity-frac must be in (0, 1]", file=sys.stderr)
        return 2

    # --serve knobs are validated up front (before the trace loads),
    # so garbage exits 2 cheaply, exactly like --parallel.
    service_config = None
    serve_tenants = 1
    serve_seed = 0
    if args.serve:
        from repro.experiments.common import parse_bounded_int
        from repro.service.config import (
            ServiceConfig,
            parse_max_inflight,
            parse_port,
            parse_queue_depth,
            parse_tenant_rate,
        )

        try:
            service_config = ServiceConfig(
                port=parse_port(args.port),
                max_inflight=parse_max_inflight(args.max_inflight),
                tenant_rate=parse_tenant_rate(args.tenant_rate),
                queue_depth=parse_queue_depth(args.queue_depth),
            )
            serve_tenants = parse_bounded_int(
                args.serve_tenants, source="--serve-tenants",
                minimum=1, what="tenant count",
            )
            serve_seed = parse_bounded_int(
                args.serve_seed, source="--serve-seed", minimum=0,
                what="seed",
            )
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.faults is not None:
            print(
                "--serve does not support --faults", file=sys.stderr
            )
            return 2
        if args.parallel is not None:
            print(
                "--serve replays in-process; drop --parallel",
                file=sys.stderr,
            )
            return 2
        if service_config.port != 0 and len(policies) != 1:
            print(
                "--serve --port needs exactly one --policy",
                file=sys.stderr,
            )
            return 2

    # --parallel absent -> serial; bare --parallel -> default pool;
    # --parallel N -> pinned pool, validated like REPRO_PARALLEL.
    parallel = args.parallel is not None
    max_workers: Optional[int] = None
    if parallel and args.parallel != "auto":
        try:
            workers = parse_worker_count(args.parallel, source="--parallel")
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if workers == 0:
            parallel = False
        else:
            max_workers = workers

    faults = None
    if args.fault_seed is not None and args.faults is None:
        print("--fault-seed requires --faults", file=sys.stderr)
        return 2
    if args.faults is not None:
        try:
            faults = FaultSchedule.load(args.faults)
            if args.fault_seed is not None:
                faults = faults.with_seed(
                    parse_fault_seed(args.fault_seed)
                )
        except FaultError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    try:
        prepared = PreparedTrace.load(args.trace)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    profile = PROFILES[args.profile]
    federation = Federation.single_site(build_sdss_catalog(profile), "sdss")
    federation.add_server(
        DatabaseServer("first", build_first_catalog(profile))
    )
    capacity = max(
        1, int(federation.total_database_bytes() * args.capacity_frac)
    )

    if args.serve:
        results = _run_service(
            prepared,
            federation,
            capacity,
            args.granularity,
            policies,
            serve_tenants,
            serve_seed,
            service_config,
            trace_dir=(
                Path(args.trace_dir)
                if args.trace_dir is not None
                else None
            ),
        )
    elif args.trace_dir is not None:
        results = _run_with_traces(
            prepared,
            federation,
            capacity,
            args.granularity,
            policies,
            Path(args.trace_dir),
            faults=faults,
            partial_results=args.partial_results,
        )
    else:
        results = compare_policies(
            prepared,
            federation,
            capacity,
            args.granularity,
            policies=policies,
            record_series=False,
            parallel=parallel,
            max_workers=max_workers,
            faults=faults,
            partial_results=args.partial_results,
        )
    print(
        format_breakdown(
            results,
            title=(
                f"{prepared.name}: {len(prepared)} queries, "
                f"{args.granularity} caching, cache "
                f"{args.capacity_frac:.0%} of DB ({capacity:,} B)"
            ),
            sequence_bytes=float(prepared.sequence_bytes),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
