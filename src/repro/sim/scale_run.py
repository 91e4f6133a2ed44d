"""CLI: constant-memory streamed replay with a deterministic report.

Usage::

    python -m repro.sim.scale_run --flavor edr -n 10000 \\
        --yields estimated --policy online-by --capacity 40000000 \\
        -o report.json --max-peak-mb 600

    python -m repro.sim.scale_run --chunked traces/edr-1m \\
        --policy online-by --capacity 40000000 -o report.json

Generates (or reads) a prepared-query stream and replays it through one
policy with streaming accounting: the trace is never materialized, the
cumulative series is kept bounded by adaptive sampling, and peak memory
stays flat however long the trace is.

The JSON report is **byte-deterministic**: same seed, same knobs → the
same file, byte for byte.  That is what the CI scale-smoke job asserts
by running this twice and diffing.  Anything nondeterministic (wall
time, peak memory) goes to stderr only; ``--max-peak-mb`` turns the
tracemalloc peak into an exit-code ceiling without ever entering the
report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import List, Optional

from repro.core.policies import POLICY_REGISTRY
from repro.core.yield_model import YIELD_MODES, make_yield_source
from repro.federation.mediator import Mediator
from repro.sim.runner import build_policy
from repro.sim.simulator import Simulator
from repro.workload.chunks import ChunkedTrace
from repro.workload.generator import TraceConfig
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.stream import GeneratedStream, QueryStream

#: Report format tag; bump on incompatible change.
REPORT_FORMAT = "repro-scale-report/1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.scale_run",
        description="Streamed constant-memory replay of a large trace.",
    )
    parser.add_argument(
        "--flavor", default="edr", help="trace flavor (generated mode)"
    )
    parser.add_argument(
        "-n", "--num-queries", type=int, default=10_000,
        help="trace length (generated mode; up to 10^6)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (defaults to the flavor's canonical seed)",
    )
    parser.add_argument(
        "--profile", default="small", choices=sorted(PROFILES),
        help="database scale profile",
    )
    parser.add_argument(
        "--yields", default="estimated", choices=list(YIELD_MODES),
        help="yield source for generated streams",
    )
    parser.add_argument(
        "--chunked", metavar="DIR", default=None,
        help="replay an existing chunked trace instead of generating",
    )
    parser.add_argument(
        "--policy", default="online-by",
        choices=sorted(POLICY_REGISTRY) + ["static"],
        help="cache policy to replay through",
    )
    parser.add_argument(
        "--capacity", type=int, default=40_000_000,
        help="cache capacity in bytes",
    )
    parser.add_argument(
        "--granularity", default="table", choices=("table", "column"),
        help="caching granularity",
    )
    parser.add_argument(
        "--byu", action="store_true",
        help="use the BYU (raw-byte) cost view instead of BYHR",
    )
    parser.add_argument(
        "--max-peak-mb", type=float, default=None,
        help="fail (exit 3) if the replay's tracemalloc peak exceeds "
        "this many MB (enables tracemalloc, which slows the replay "
        "several-fold — throughput numbers on stderr are then "
        "conservative)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="report path (JSON); stdout when omitted",
    )
    return parser


def run_scale(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    mediator = Mediator(build_federation(profile))
    federation = mediator.federation

    stream: QueryStream
    if args.chunked is not None:
        stream = ChunkedTrace(Path(args.chunked))
        source_mode = "chunked"
    else:
        config = TraceConfig(
            num_queries=args.num_queries,
            flavor=args.flavor,
            seed=args.seed,
        )
        source = make_yield_source(args.yields, mediator=mediator)
        stream = GeneratedStream(config, mediator, source, profile)
        source_mode = args.yields

    simulator = Simulator(
        federation,
        granularity=args.granularity,
        policy_sees_weights=not args.byu,
    )
    policy = build_policy(
        args.policy, args.capacity, stream, federation, args.granularity
    )

    trace_memory = args.max_peak_mb is not None
    if trace_memory:
        tracemalloc.start()
    started = time.perf_counter()  # repro-lint: allow[RPR002] stderr-only timing
    result = simulator.run_stream(stream, policy, record_series="sampled")
    elapsed = time.perf_counter() - started  # repro-lint: allow[RPR002] stderr-only timing
    peak_bytes = 0
    if trace_memory:
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    report = {
        "format": REPORT_FORMAT,
        "trace": {
            "name": stream.name,
            "fingerprint": stream.fingerprint,
            "num_queries": result.queries,
            "yields": source_mode,
            "profile": args.profile,
        },
        "run": {
            "policy": args.policy,
            "capacity_bytes": args.capacity,
            "granularity": args.granularity,
            "policy_sees_weights": not args.byu,
        },
        "summary": result.summary(),
        "series": {
            "stride": result.series_stride,
            "cumulative_bytes": result.cumulative_bytes,
        },
    }
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output is None:
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")

    peak_mb = peak_bytes / 1e6
    throughput = result.queries / elapsed if elapsed > 0 else float("inf")
    peak_note = (
        f", tracemalloc peak {peak_mb:.1f} MB" if trace_memory else ""
    )
    print(
        f"replayed {result.queries} queries in {elapsed:.2f}s "
        f"({throughput:,.0f} q/s){peak_note}",
        file=sys.stderr,
    )
    if args.max_peak_mb is not None and peak_mb > args.max_peak_mb:
        print(
            f"peak memory {peak_mb:.1f} MB exceeds ceiling "
            f"{args.max_peak_mb:.1f} MB",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_scale(args)


if __name__ == "__main__":
    sys.exit(main())
