"""CLI: ``repro-serve`` — run the multi-tenant mediator service.

Usage::

    python -m repro.workload.make_trace -n 2000 --prepare -o edr.jsonl
    repro-serve --profile small --policy rate-profile \\
        --capacity-frac 0.3 --port 8791 \\
        --trace-out runs/service.jsonl --slo examples/slo_service.json

The federation is rebuilt from the named scale profile exactly as
``repro.sim.simulate`` does, so a service run over a prepared trace is
directly comparable (``repro-report --diff``) to a simulator run over
the same trace.  All admission knobs go through the hardened parsers
in :mod:`repro.service.config`: garbage exits 2 before anything binds.

The process serves until ``POST /shutdown`` (or SIGINT), then closes
its trace/span sinks — which is what makes the CI smoke job's
artifacts deterministic and complete.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.core.instrumentation import Instrumentation
from repro.errors import ConfigurationError, ReproError
from repro.service.config import (
    ServiceConfig,
    parse_max_inflight,
    parse_port,
    parse_queue_depth,
    parse_tenant_rate,
)
from repro.service.server import MediatorService
from repro.sim.runner import build_policy
from repro.sim.simulate import KNOWN_POLICIES
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.trace import PreparedTrace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve bypass-caching decisions to many tenants.",
    )
    parser.add_argument(
        "--profile", default="small", choices=sorted(PROFILES),
        help="scale profile to rebuild the federation from",
    )
    parser.add_argument(
        "--policy", default="rate-profile", choices=KNOWN_POLICIES,
        help="shared cache policy (static needs --trace for its "
        "offline selection)",
    )
    parser.add_argument(
        "--granularity", default="table", choices=("table", "column"),
    )
    parser.add_argument(
        "--capacity-frac", type=float, default=0.3,
        help="cache size as a fraction of the database",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PREPARED",
        help="prepared trace backing the static policy's selection",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", default="0",
        help="TCP port (0 picks a free one; printed on startup)",
    )
    parser.add_argument(
        "--max-inflight", default="8",
        help="queries decided per decision-lock hold",
    )
    parser.add_argument(
        "--tenant-rate", default="0",
        help=(
            "per-tenant admitted queries per arrival tick "
            "(0/off/none/unlimited disables rate limiting)"
        ),
    )
    parser.add_argument(
        "--queue-depth", default="64",
        help="per-tenant backlog before shedding to bypass-only",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="stream the decision trace (JSONL) for repro-report",
    )
    parser.add_argument(
        "--span-out", default=None, metavar="PATH",
        help="stream spans (JSONL) alongside the decision trace",
    )
    parser.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="SLO spec (JSON) to evaluate live at GET /slo",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="tracer seed (span ids are derived from it)",
    )
    return parser


async def _serve(service: MediatorService, host: str, port: int) -> None:
    await service.start(host, port)
    print(f"serving on http://{host}:{service.port}", flush=True)
    await service.serve_until_shutdown()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ServiceConfig(
            host=args.host,
            port=parse_port(args.port),
            max_inflight=parse_max_inflight(args.max_inflight),
            tenant_rate=parse_tenant_rate(args.tenant_rate),
            queue_depth=parse_queue_depth(args.queue_depth),
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not 0.0 < args.capacity_frac <= 1.0:
        print("capacity-frac must be in (0, 1]", file=sys.stderr)
        return 2

    prepared: Optional[PreparedTrace] = None
    if args.trace is not None:
        try:
            prepared = PreparedTrace.load(args.trace)
        except FileNotFoundError:
            print(f"no such trace file: {args.trace}", file=sys.stderr)
            return 2
    if args.policy == "static" and prepared is None:
        print(
            "--policy static needs --trace for its offline selection",
            file=sys.stderr,
        )
        return 2

    profile = PROFILES[args.profile]
    federation = build_federation(profile)
    capacity = max(
        1, int(federation.total_database_bytes() * args.capacity_frac)
    )
    try:
        policy = build_policy(
            args.policy, capacity, prepared, federation,
            args.granularity,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    slo_engine = None
    if args.slo is not None:
        from repro.obs.slo import SLOEngine, SLOSpec

        try:
            slo_engine = SLOEngine(SLOSpec.load(args.slo))
        except (OSError, ReproError, ValueError) as exc:
            print(f"bad SLO spec {args.slo}: {exc}", file=sys.stderr)
            return 2

    instrumentation = Instrumentation(max_events=0)
    trace_writer = None
    if args.trace_out is not None:
        from repro.obs.manifest import RunManifest, wall_clock_timestamp
        from repro.obs.trace_io import TraceWriter

        manifest = RunManifest(
            workload=prepared.name if prepared is not None else "service",
            policy=args.policy,
            granularity=args.granularity,
            capacity_bytes=capacity,
            source="service",
            created_at=wall_clock_timestamp(),
        )
        trace_writer = TraceWriter(args.trace_out, manifest)
        instrumentation.add_probe(trace_writer)

    tracer = None
    span_writer = None
    if args.span_out is not None:
        from repro.obs.spans import SpanTracer, SpanWriter

        tracer = SpanTracer(
            seed=args.seed,
            run_label=f"service-{args.policy}",
            wall_clock=False,
        )
        span_writer = SpanWriter(args.span_out, tracer)
        tracer.add_sink(span_writer)

    service = MediatorService(
        federation,
        policy,
        config=config,
        granularity=args.granularity,
        policy_sees_weights=True,
        instrumentation=instrumentation,
        tracer=tracer,
        slo_engine=slo_engine,
    )
    try:
        asyncio.run(_serve(service, args.host, config.port))
    except KeyboardInterrupt:
        pass
    finally:
        if trace_writer is not None:
            trace_writer.close()
            print(
                f"wrote {trace_writer.events_written} events to "
                f"{args.trace_out}"
            )
        if span_writer is not None:
            span_writer.close()
            print(
                f"wrote {span_writer.spans_written} spans to "
                f"{args.span_out}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
