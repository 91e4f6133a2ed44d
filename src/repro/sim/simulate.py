"""CLI: replay a trace through one or more cache policies.

Usage::

    python -m repro.workload.make_trace -n 2000 --prepare -o edr.jsonl
    python -m repro.sim.simulate --trace edr.jsonl.prepared.jsonl \\
        --policy rate-profile --policy gds --capacity-frac 0.3
    python -m repro.sim.simulate --flavor edr -n 1000000 \\
        --policy online-by --capacity-frac 0.1 -o report.json

The source is ``--trace`` (a prepared JSONL file, or a chunked trace
directory written by ``make_trace --chunked``) or ``--flavor`` (a trace
generated and prepared on the fly).  A directory or a flavor streams:
one query in memory at a time, flat peak memory at any length.  The
federation is rebuilt from ``--profile``, which must match the one the
trace was prepared against.  ``-o`` writes a byte-deterministic JSON
report; wall time and the tracemalloc peak (``--max-peak-mb``, exit 3
above it) go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.instrumentation import Instrumentation
from repro.core.policies import POLICY_REGISTRY
from repro.core.yield_model import YIELD_MODES, make_yield_source
from repro.errors import (
    CacheError,
    ConfigurationError,
    FaultError,
    WorkloadError,
)
from repro.experiments.common import parse_worker_count
from repro.faults import FaultSchedule, parse_fault_seed
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.sim.reporting import format_breakdown
from repro.sim.results import SimulationResult
from repro.sim.runner import (
    DEFAULT_POLICIES,
    build_policy,
    compare_policies,
    run_single,
)
from repro.workload.chunks import ChunkedTrace
from repro.workload.generator import FLAVOR_THEME_WEIGHTS, TraceConfig
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.stream import GeneratedStream, QueryStream
from repro.workload.trace import PreparedTrace

KNOWN_POLICIES = tuple(sorted(POLICY_REGISTRY)) + ("static",)

#: Report format tag; bump on incompatible change.
REPORT_FORMAT = "repro-simulate-report/1"

Source = Union[PreparedTrace, QueryStream]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.simulate",
        description="Replay a trace through cache policies.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", metavar="PATH",
                        help="prepared trace: a JSONL file or a chunked "
                        "trace directory")
    source.add_argument("--flavor", choices=sorted(FLAVOR_THEME_WEIGHTS),
                        help="generate and prepare a streamed trace of "
                        "this flavor")
    add = parser.add_argument
    add("-n", "--num-queries", type=int,
        help="generated trace length (--flavor; default 10000)")
    add("--seed", type=int,
        help="generator seed (--flavor; default: the flavor's)")
    add("--yields", choices=list(YIELD_MODES),
        help="generated trace's yield source (--flavor; default estimated)")
    add("--profile", default="small", choices=sorted(PROFILES),
        help="scale profile the trace was prepared against")
    add("--policy", action="append", choices=KNOWN_POLICIES,
        help="policy to run (repeatable; default: the paper line-up)")
    add("--granularity", default="table", choices=("table", "column"))
    add("--capacity-frac", type=float, default=0.3,
        help="cache size as a fraction of the database")
    add("--parallel", nargs="?", const="auto", metavar="WORKERS",
        help="replay the policies over a prepared file in worker "
        "processes; optionally a worker count (0/false/no/off: serial)")
    add("--trace-dir", metavar="DIR",
        help="write DIR/trace-<policy>.jsonl decision traces (with a "
        "run-manifest header) for repro-report; replays serially")
    add("--faults", metavar="SCHEDULE",
        help="JSON fault schedule (repro.faults.FaultSchedule): replay "
        "behind the resilient transport, retry traffic accounted")
    add("--fault-seed", metavar="SEED",
        help="override the schedule's seed with a non-negative integer "
        "(requires --faults)")
    add("--partial-results", action="store_true",
        help="under faults, answer multi-server queries from the "
        "reachable servers instead of failing the whole query")
    add("--max-peak-mb", type=float,
        help="exit 3 if the replay's tracemalloc peak exceeds this many "
        "MB (replays serially, several-fold slower)")
    add("-o", "--output", metavar="FILE",
        help="write a byte-deterministic JSON report: each policy's "
        "summary and sampled cumulative series")
    return parser


def _load_source(args: argparse.Namespace) -> Tuple[Source, Federation]:
    """The replay source named on the command line, and its federation."""
    profile = PROFILES[args.profile]
    if args.trace is not None:
        path = Path(args.trace)
        source: Source = (
            ChunkedTrace(path) if path.is_dir() else PreparedTrace.load(path)
        )
        return source, build_federation(profile)
    mediator = Mediator(build_federation(profile))
    config = TraceConfig(
        num_queries=10_000 if args.num_queries is None else args.num_queries,
        flavor=args.flavor,
        seed=args.seed,
    )
    yields = make_yield_source(args.yields or "estimated", mediator=mediator)
    stream = GeneratedStream(config, mediator, yields, profile)
    return stream, mediator.federation


def _run_serially(
    source: Source,
    federation: Federation,
    capacity: int,
    args: argparse.Namespace,
    policies: Sequence[str],
    record_series: Union[bool, str],
    faults: Optional[FaultSchedule],
) -> Dict[str, SimulationResult]:
    """One policy after another.  With ``--trace-dir``, each policy's
    decision events stream through a counters-only sink
    (``max_events=0``) into its own ``trace-<policy>.jsonl``."""
    from repro.obs.manifest import RunManifest, wall_clock_timestamp
    from repro.obs.trace_io import TraceWriter

    results: Dict[str, SimulationResult] = {}
    for name in policies:
        sink: Optional[Instrumentation] = None
        writer: Optional[TraceWriter] = None
        with ExitStack() as stack:
            if args.trace_dir is not None:
                manifest = RunManifest(
                    workload=source.name,
                    policy=name,
                    granularity=args.granularity,
                    capacity_bytes=capacity,
                    source="simulator",
                    created_at=wall_clock_timestamp(),
                )
                path = Path(args.trace_dir) / f"trace-{name}.jsonl"
                writer = stack.enter_context(TraceWriter(path, manifest))
                sink = Instrumentation(max_events=0)
                sink.add_probe(writer)
            results[name] = run_single(
                source,
                federation,
                name,
                capacity,
                args.granularity,
                record_series=record_series,
                instrumentation=sink,
                faults=faults,
                partial_results=args.partial_results,
            )
        if writer is not None:
            print(f"wrote {writer.events_written} events to {writer.path}")
    return results


def _report(source: Source, results: Dict[str, SimulationResult]) -> str:
    """The deterministic JSON report: no wall time, no peak."""
    report = {
        "format": REPORT_FORMAT,
        "trace": {
            "name": source.name,
            "fingerprint": source.fingerprint,
            "num_queries": next(iter(results.values())).queries,
        },
        "policies": {
            name: {
                "summary": result.summary(),
                "series_stride": result.series_stride,
                "cumulative_bytes": result.cumulative_bytes,
            }
            for name, result in results.items()
        },
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    policies = tuple(args.policy or DEFAULT_POLICIES)
    if not 0.0 < args.capacity_frac <= 1.0:
        print("capacity-frac must be in (0, 1]", file=sys.stderr)
        return 2
    generator_options = (args.num_queries, args.seed, args.yields)
    if args.trace is not None and generator_options != (None,) * 3:
        print("-n, --seed and --yields need --flavor", file=sys.stderr)
        return 2

    # --parallel absent -> serial; bare --parallel -> default pool;
    # --parallel N -> pinned pool, validated like REPRO_PARALLEL.
    parallel = args.parallel is not None
    max_workers: Optional[int] = None
    if parallel and args.parallel != "auto":
        try:
            max_workers = parse_worker_count(args.parallel, "--parallel")
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        parallel = max_workers > 0

    faults = None
    if args.fault_seed is not None and args.faults is None:
        print("--fault-seed requires --faults", file=sys.stderr)
        return 2
    if args.faults is not None:
        try:
            faults = FaultSchedule.load(args.faults)
            if args.fault_seed is not None:
                faults = faults.with_seed(parse_fault_seed(args.fault_seed))
        except FaultError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    try:
        source, federation = _load_source(args)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    except WorkloadError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    capacity = max(
        1, int(federation.total_database_bytes() * args.capacity_frac)
    )
    if isinstance(source, QueryStream) and "static" in policies:
        try:  # refuse up front, not after the policies ahead of it
            build_policy(
                "static", capacity, source, federation, args.granularity
            )
        except CacheError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    record_series = "sampled" if args.output is not None else False
    trace_memory = args.max_peak_mb is not None
    if trace_memory:
        tracemalloc.start()
    started = time.perf_counter()  # repro-lint: allow[RPR002] stderr-only timing
    if isinstance(source, PreparedTrace) and args.trace_dir is None:
        results = compare_policies(
            source,
            federation,
            capacity,
            args.granularity,
            policies=policies,
            record_series=record_series,
            parallel=parallel and not trace_memory,
            max_workers=max_workers,
            faults=faults,
            partial_results=args.partial_results,
        )
    else:
        results = _run_serially(
            source, federation, capacity, args, policies, record_series,
            faults,
        )
    elapsed = time.perf_counter() - started  # repro-lint: allow[RPR002] stderr-only timing
    peak_mb = 0.0
    if trace_memory:
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()

    first = next(iter(results.values()))
    title = (
        f"{source.name}: {first.queries} queries, {args.granularity} "
        f"caching, cache {args.capacity_frac:.0%} of DB ({capacity:,} B)"
    )
    print(format_breakdown(results, title, first.sequence_bytes))
    if args.output is not None:
        Path(args.output).write_text(
            _report(source, results), encoding="utf-8"
        )
    replayed = sum(result.queries for result in results.values())
    print(
        f"replayed {replayed} queries in {elapsed:.2f}s "
        f"({replayed / max(elapsed, 1e-9):,.0f} q/s)"
        + (f", tracemalloc peak {peak_mb:.1f} MB" if trace_memory else ""),
        file=sys.stderr,
    )
    if trace_memory and peak_mb > args.max_peak_mb:
        print(
            f"peak memory {peak_mb:.1f} MB exceeds ceiling "
            f"{args.max_peak_mb:.1f} MB",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
