"""Captures exact prepared traces: one theme at a time, three seeds.

``python -m tests.workload.exact_net`` prints the capture as JSON;
``parent_exact_net.json`` is that output at the last commit whose
executor built every result tuple to count it.
``test_exact_regression_net.py`` asserts the capture is unchanged, with
and without numpy.

Per (theme, seed): ``make_trace --prepare``-style exact preparation of
320 queries against the two-server SDSS + FIRST federation (``small``
profile) — the prepared-stream fingerprint and every query's
``(yield_bytes, bypass_bytes)``.
"""

import json
import sys

from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace

# What ``make_trace`` prepares against (its default profile is SMALL).
from repro.workload.sdss_schema import SMALL, build_federation
from repro.workload.templates import THEMES

SEEDS = (7, 11, 2005)
NUM_QUERIES = 320


def capture(federation: Federation) -> dict:
    net = {}
    for theme in sorted(THEMES):
        for seed in SEEDS:
            config = TraceConfig(
                num_queries=NUM_QUERIES,
                flavor="custom",
                seed=seed,
                theme_weights={theme: 1.0},
            )
            prepared = prepare_trace(
                generate_trace(config, SMALL), Mediator(federation)
            )
            net[f"{theme}/{seed}"] = {
                "fingerprint": prepared.fingerprint,
                "yields": [
                    [query.yield_bytes, query.bypass_bytes]
                    for query in prepared
                ],
            }
    return net


if __name__ == "__main__":
    json.dump(capture(build_federation()), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
