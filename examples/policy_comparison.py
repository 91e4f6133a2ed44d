"""Compare every caching algorithm on a generated SDSS-like trace.

Generates an EDR-flavor workload, measures yields once, then replays it
through the full algorithm line-up at both caching granularities,
printing the Tables-1/2-style breakdown and the cumulative-cost chart of
Figures 7/8.

Run:  python examples/policy_comparison.py  [num_queries]
"""

from __future__ import annotations

import sys

from repro.federation import Federation, Mediator
from repro.sim import compare_policies
from repro.sim.reporting import cost_series_chart, format_breakdown
from repro.workload import SMALL, build_sdss_catalog, edr_trace, prepare_trace

POLICIES = (
    "rate-profile",
    "online-by",
    "space-eff-by",
    "gds",
    "lru",
    "semantic",
    "static",
    "no-cache",
)


def main() -> None:
    num_queries = int(sys.argv[1]) if len(sys.argv) > 1 else 1500

    print(f"generating and measuring a {num_queries}-query EDR trace...")
    catalog = build_sdss_catalog(SMALL)
    federation = Federation.single_site(catalog)
    mediator = Mediator(federation)
    prepared = prepare_trace(edr_trace(num_queries, SMALL), mediator)

    database = federation.total_database_bytes()
    capacity = database * 3 // 10
    print(
        f"database {database / 1e6:.2f} MB, cache {capacity / 1e6:.2f} MB "
        f"(30%), sequence cost {prepared.sequence_bytes / 1e6:.2f} MB\n"
    )

    for granularity in ("table", "column"):
        results = compare_policies(
            prepared,
            federation,
            capacity,
            granularity,
            policies=POLICIES,
        )
        print(
            format_breakdown(
                results,
                title=f"=== {granularity} caching ===",
                sequence_bytes=prepared.sequence_bytes,
            )
        )
        print()
        chart_input = {
            name: results[name]
            for name in ("rate-profile", "gds", "static", "no-cache")
        }
        print(
            cost_series_chart(
                chart_input,
                title=f"cumulative WAN bytes, {granularity} caching",
            )
        )
        print()


if __name__ == "__main__":
    main()
