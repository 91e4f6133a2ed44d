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
from repro.sim.reporting import format_breakdown
from repro.sim.results import SimulationResult
from repro.sim.runner import compare_policies, run_single
from repro.workload.sdss_schema import PROFILES, build_federation
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
    federation = build_federation(profile)
    capacity = max(
        1, int(federation.total_database_bytes() * args.capacity_frac)
    )

    if args.trace_dir is not None:
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
