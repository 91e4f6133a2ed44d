"""CLI: generate (and optionally prepare) a synthetic SDSS-like trace.

Usage::

    python -m repro.workload.make_trace --flavor edr -n 5000 -o edr.jsonl
    python -m repro.workload.make_trace --flavor dr1 -n 2000 \\
        --profile medium --prepare -o dr1.jsonl
    python -m repro.workload.make_trace --flavor edr -n 1000000 \\
        --yields estimated --chunked traces/edr-1m

``--prepare`` executes every query against a freshly built synthetic
federation and writes a second file (``<output>.prepared.jsonl``)
carrying measured yields and per-object attributions, ready for the
simulator.  ``--yields estimated`` swaps execution for catalog
statistics (O(plans) preparation).  ``--chunked DIR`` streams the
generate→prepare pipeline straight into the chunked on-disk format with
one query in memory at a time — the only mode that scales to 10^6
queries.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.cli import quiet_on_broken_pipe
from repro.core.yield_model import YIELD_MODES, make_yield_source
from repro.federation.mediator import Mediator
from repro.workload.chunks import DEFAULT_CHUNK_SIZE, write_chunked
from repro.workload.generator import (
    FLAVOR_THEME_WEIGHTS,
    TraceConfig,
    generate_trace,
)
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import (
    PROFILES,
    ScaleProfile,
    build_federation,
)
from repro.workload.stats import format_stats, trace_stats, yield_stats
from repro.workload.stream import GeneratedStream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.make_trace",
        description="Generate a synthetic SDSS-like query trace.",
    )
    parser.add_argument(
        "--flavor",
        default="edr",
        choices=sorted(FLAVOR_THEME_WEIGHTS),
        help="trace flavor (theme mixture preset)",
    )
    parser.add_argument(
        "-n", "--num-queries", type=int, default=5000,
        help="number of queries to generate (up to 10^6 with --chunked)",
    )
    parser.add_argument(
        "--profile",
        default="small",
        choices=sorted(PROFILES),
        help="database scale profile",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (defaults to the flavor's canonical seed)",
    )
    parser.add_argument(
        "--mean-dwell", type=int, default=250,
        help="mean queries per user theme before switching",
    )
    parser.add_argument(
        "--cold-prob", type=float, default=0.05,
        help="probability of a one-off bulk-table query",
    )
    parser.add_argument(
        "--prepare", action="store_true",
        help="also measure every query's yield and write it alongside",
    )
    parser.add_argument(
        "--yields",
        default="exact",
        choices=list(YIELD_MODES),
        help="yield source for --prepare/--chunked: execute each query "
        "(exact) or estimate from catalog statistics (estimated)",
    )
    parser.add_argument(
        "--chunked",
        metavar="DIR",
        default=None,
        help="stream generate+prepare into a chunked trace directory "
        "(constant memory; implies preparation)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help="queries per chunk file in --chunked mode",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="output trace path (JSONL); required unless --chunked",
    )
    return parser


def run_chunked(
    args: argparse.Namespace, config: TraceConfig, profile: ScaleProfile
) -> int:
    """The constant-memory path: generate→prepare→chunk, one query at a time."""
    mediator = Mediator(build_federation(profile))
    source = make_yield_source(args.yields, mediator=mediator)
    stream = GeneratedStream(config, mediator, source, profile)
    manifest = write_chunked(
        Path(args.chunked), stream.name, iter(stream), args.chunk_size
    )
    print(
        f"wrote {manifest.num_queries} queries "
        f"({len(manifest.chunks)} chunks, yields={args.yields}) "
        f"to {args.chunked}"
    )
    print(
        f"sequence cost {manifest.sequence_bytes / 1e6:.2f} MB, "
        f"fingerprint {manifest.fingerprint[:16]}…"
    )
    return 0


@quiet_on_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile = PROFILES[args.profile]
    config = TraceConfig(
        num_queries=args.num_queries,
        flavor=args.flavor,
        seed=args.seed,
        mean_dwell=args.mean_dwell,
        cold_prob=args.cold_prob,
    )
    if args.chunked is not None:
        return run_chunked(args, config, profile)
    if args.output is None:
        print("error: -o/--output is required unless --chunked", file=sys.stderr)
        return 2

    # Every file is written before anything is printed, so a reader
    # that closes stdout early cannot cut the run short.
    trace = generate_trace(config, profile)
    output = Path(args.output)
    trace.save(output)
    if args.prepare:
        mediator = Mediator(build_federation(profile))
        source = make_yield_source(args.yields, mediator=mediator)
        prepared = prepare_trace(trace, mediator, source=source)
        prepared_path = output.with_suffix(output.suffix + ".prepared.jsonl")
        prepared.save(prepared_path)
    print(f"wrote {len(trace)} queries to {output}")
    print(format_stats(trace_stats(trace)))
    if args.prepare:
        print(
            f"wrote {args.yields} yields to {prepared_path} "
            f"(sequence cost {prepared.sequence_bytes / 1e6:.2f} MB)"
        )
        print(format_stats(trace_stats(trace), yield_stats(prepared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
