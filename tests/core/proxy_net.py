"""Captures what the live proxy moves, emits and answers on fixed runs.

``python -m tests.core.proxy_net`` prints the capture as JSON;
``parent_proxy_net.json`` is that output at the last commit whose proxy
decided and settled queries in its own body instead of driving
``DecisionPipeline.step``, re-recorded without the stage call counts
when the proxy's stage timers were deleted.
``test_proxy_regression_net.py`` asserts the capture is unchanged.

Cases: a 150-query ``edr`` trace over the TINY SDSS catalog at a third
of the database, table and column objects, with a sibling supplying
every other object, and behind flap, brownout and outage schedules;
plus the two-server SDSS + ``First`` federation (decomposed bypasses),
fault-free and faulted.  Per case: the decision-event JSONL (digest and
line count), every :class:`~repro.federation.network.TrafficLedger`
total and per-server map, ``stats()`` (transport included), the sink's
counters, and each response's ``wan_bytes``,
``outcome``, ``retries``, ``failed_loads`` and result digest.
``served_from_cache`` and ``loads`` are not recorded: a response now
reports what happened, not what the policy asked for.
"""

import hashlib
import json
import sys
import zlib

from repro.core.instrumentation import Instrumentation
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.core.proxy import BypassYieldProxy
from repro.faults import FaultEngine, FaultSchedule, FaultWindow
from repro.faults.transport import ResilientTransport
from repro.federation import DatabaseServer, Federation
from repro.sqlengine import Catalog, Column, ColumnType, TableSchema
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.sdss_schema import TINY, build_sdss_catalog

from tests.conftest import build_catalog

NUM_QUERIES = 150

SCHEDULES = {
    "flap": (
        FaultWindow(
            kind="flap", server="sdss", start=0, end=NUM_QUERIES,
            period=6, duty=0.5,
        ),
    ),
    "brownout": (
        FaultWindow(
            kind="brownout", server="sdss", start=0, end=NUM_QUERIES,
            failure_rate=0.5, cost_multiplier=1.5,
        ),
    ),
    "outage": (
        FaultWindow(kind="outage", server="sdss", start=40, end=90),
    ),
}

FIRST_QUERIES = (
    "SELECT p.objID, f.peak FROM PhotoObj p, First f "
    "WHERE p.objID = f.objID AND f.peak > 1.5",
    "SELECT objID, ra, dec, modelMag_g FROM PhotoObj WHERE ra >= 0",
    "SELECT firstID, peak FROM First WHERE peak >= 0",
    "SELECT z FROM SpecObj WHERE z > 0.02",
)

FIRST_SCHEDULE = (
    FaultWindow(
        kind="flap", server="first", start=0, end=200, period=5, duty=0.6
    ),
    FaultWindow(kind="outage", server="sdss", start=20, end=35),
)


def alternate_sibling(object_id):
    """A sibling holds every other object (stable across runs)."""
    return "sibling" if zlib.crc32(object_id.encode()) % 2 else None


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def transport_for(windows, seed=11):
    if windows is None:
        return None
    return ResilientTransport(
        FaultEngine(FaultSchedule(seed=seed, windows=tuple(windows)))
    )


def edr_federation():
    return Federation.single_site(build_sdss_catalog(TINY, seed=5), "sdss")


def edr_queries():
    trace = generate_trace(
        TraceConfig(num_queries=NUM_QUERIES, flavor="edr", seed=321), TINY
    )
    return [record.sql for record in trace]


def first_federation():
    federation = Federation.single_site(build_catalog(), "sdss")
    radio = Catalog("radio")
    table = radio.create_table(
        TableSchema(
            "First",
            [
                Column("firstID", ColumnType.BIGINT),
                Column("objID", ColumnType.BIGINT),
                Column("peak", ColumnType.FLOAT),
            ],
        )
    )
    table.insert_many([[100 + i, i + 1, float(i)] for i in range(5)])
    federation.add_server(DatabaseServer("first", radio))
    return federation


def run_case(federation, queries, granularity, windows=None,
             peer_lookup=None):
    sink = Instrumentation()
    proxy = BypassYieldProxy(
        federation,
        RateProfilePolicy(
            capacity_bytes=federation.total_database_bytes() // 3
        ),
        granularity=granularity,
        instrumentation=sink,
        transport=transport_for(windows),
        peer_lookup=peer_lookup,
    )
    responses = []
    for sql in queries:
        response = proxy.query(sql)
        result = response.result
        rows = "-" if result is None else digest(repr(result.rows))[:16]
        responses.append(
            f"{int(response.wan_bytes)} {response.outcome} "
            f"{response.retries} {','.join(response.failed_loads)} {rows}"
        )
    events = "".join(
        json.dumps(event.to_json(), sort_keys=True) + "\n"
        for event in sink.events
    )
    return {
        "events": {"lines": len(sink.events), "sha256": digest(events)},
        "ledger": {
            name: value for name, value in sorted(vars(proxy.ledger).items())
        },
        "stats": proxy.stats(),
        "counters": dict(sink.counters),
        "responses": responses,
    }


def capture():
    """``{case: {artefact: value}}`` for every case."""
    queries = edr_queries()
    net = {}
    for granularity in ("table", "column"):
        net[f"peer/{granularity}"] = run_case(
            edr_federation(), queries, granularity,
            peer_lookup=alternate_sibling,
        )
        for name, windows in SCHEDULES.items():
            net[f"{name}/{granularity}"] = run_case(
                edr_federation(), queries, granularity, windows=windows
            )
    first_queries = [
        FIRST_QUERIES[i % len(FIRST_QUERIES)] for i in range(60)
    ]
    net["first/fault-free"] = run_case(
        first_federation(), first_queries, "table"
    )
    net["first/faulted"] = run_case(
        first_federation(), first_queries, "table", windows=FIRST_SCHEDULE
    )
    return net


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
