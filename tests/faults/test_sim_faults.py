"""End-to-end fault replay through the simulator and runner.

The contract under test: an empty schedule is the exact identity with
the fault-free path; the same ``(seed, schedule)`` replays identically
run after run, serial or parallel; faults surface as availability loss
and retry waste in the sanctioned accounting, never as silent drift.
"""

import pytest

from repro.core.instrumentation import Instrumentation
from repro.faults import FaultEngine, FaultSchedule, FaultWindow
from repro.faults.transport import ResilientTransport
from repro.federation import DatabaseServer, Federation
from repro.obs.spans import STAGE_QUERY, SpanTracer
from repro.sim.runner import build_policy, compare_policies, run_single
from repro.sim.simulator import Simulator
from repro.sqlengine import Catalog, Column, ColumnType, TableSchema
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog

POLICIES = ("lru", "gds", "online-by", "no-cache")


def make_trace(n=60, name="faulty"):
    queries = []
    for i in range(n):
        table = "PhotoObj" if i % 4 else "SpecObj"
        queries.append(
            PreparedQuery(
                index=i,
                sql=f"q{i}",
                template="t",
                yield_bytes=120,
                bypass_bytes=120,
                table_yields={table: 120.0},
                column_yields={f"{table}.objID": 120.0},
                servers=("sdss",),
            )
        )
    return PreparedTrace(name, queries)


def make_schedule(n=60, seed=17):
    return FaultSchedule(
        seed=seed,
        windows=(
            FaultWindow(kind="outage", server="sdss", start=n // 4,
                        end=n // 4 + n // 8),
            FaultWindow(
                kind="brownout", server="sdss", start=n // 2,
                end=(3 * n) // 4, failure_rate=0.4, cost_multiplier=2.0,
            ),
        ),
    )


def summarize(result):
    return (
        result.breakdown.load_bytes,
        result.breakdown.bypass_bytes,
        result.breakdown.retry_bytes,
        result.total_bytes,
        result.weighted_cost,
        result.served_queries,
        result.retries,
        result.partial_queries,
        result.unavailable_queries,
        result.failed_loads,
    )


@pytest.fixture
def federation():
    return Federation.single_site(build_catalog(), "sdss")


@pytest.fixture
def trace():
    return make_trace()


class TestEmptyScheduleIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_identity_against_fault_free_run(self, federation, trace, policy):
        plain = run_single(trace, federation, policy, 1500, "table")
        faulted = run_single(
            trace, federation, policy, 1500, "table",
            faults=FaultSchedule.empty(seed=123),
        )
        assert faulted.total_bytes == plain.total_bytes
        assert faulted.weighted_cost == plain.weighted_cost
        assert faulted.served_queries == plain.served_queries
        assert faulted.breakdown.load_bytes == plain.breakdown.load_bytes
        assert (
            faulted.breakdown.bypass_bytes == plain.breakdown.bypass_bytes
        )
        assert faulted.breakdown.retry_bytes == 0
        assert faulted.retries == 0
        assert faulted.unavailable_queries == 0
        assert faulted.availability == 1.0
        assert (
            faulted.cumulative_bytes == plain.cumulative_bytes
        )


class TestResilientSpans:
    def test_run_and_run_stream_emit_identical_spans(self, trace):
        """One step behind both drivers: same trace, same schedule,
        same span stream — every root carrying served and outcome."""
        streams = []
        for method in ("run", "run_stream"):
            federation = Federation.single_site(build_catalog(), "sdss")
            tracer = SpanTracer(seed=3, wall_clock=False, keep_spans=True)
            simulator = Simulator(federation, "table", tracer=tracer)
            policy = build_policy(
                "online-by", 1500, trace, federation, "table"
            )
            result = getattr(simulator, method)(
                trace,
                policy,
                transport=ResilientTransport(FaultEngine(make_schedule())),
            )
            assert result.unavailable_queries > 0
            streams.append([span.to_json() for span in tracer.spans])
        batch, stream = streams
        assert batch == stream
        roots = [span for span in batch if span["name"] == STAGE_QUERY]
        assert len(roots) == len(trace)
        assert all(
            {"served", "outcome"} <= set(root["attrs"]) for root in roots
        )


class TestFaultedDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_two_runs_agree_exactly(self, federation, trace, policy):
        schedule = make_schedule()
        first = run_single(
            trace, federation, policy, 1500, "table", faults=schedule
        )
        second = run_single(
            trace, federation, policy, 1500, "table", faults=schedule
        )
        assert summarize(first) == summarize(second)

    def test_seed_changes_the_run(self, federation, trace):
        # no-cache bypasses every query, so the brownout window's
        # failure draws are actually exercised on every tick.
        base = make_schedule(seed=1)
        first = run_single(
            trace, federation, "no-cache", 1500, "table", faults=base
        )
        second = run_single(
            trace, federation, "no-cache", 1500, "table",
            faults=base.with_seed(2),
        )
        # Brownout draws move with the seed; the outage shape persists.
        assert summarize(first) != summarize(second)

    def test_serial_matches_parallel(self, federation, trace):
        schedule = make_schedule()
        serial = compare_policies(
            trace, federation, 1500, "table", policies=POLICIES,
            record_series=False, faults=schedule,
        )
        parallel = compare_policies(
            trace, federation, 1500, "table", policies=POLICIES,
            record_series=False, parallel=True, max_workers=2,
            faults=schedule,
        )
        for name in POLICIES:
            assert summarize(serial[name]) == summarize(parallel[name])


class TestFaultEffects:
    def test_outage_costs_no_cache_availability(self, federation, trace):
        schedule = FaultSchedule(
            seed=5,
            windows=(
                FaultWindow(kind="outage", server="sdss", start=10, end=30),
            ),
        )
        result = run_single(
            trace, federation, "no-cache", 1500, "table", faults=schedule
        )
        assert result.unavailable_queries > 0
        assert result.availability < 1.0

    def test_brownout_charges_retry_waste(self, federation, trace):
        schedule = FaultSchedule(
            seed=5,
            windows=(
                FaultWindow(
                    kind="brownout", server="sdss", start=0, end=60,
                    failure_rate=0.6,
                ),
            ),
        )
        result = run_single(
            trace, federation, "no-cache", 1500, "table", faults=schedule
        )
        assert result.retries > 0
        assert result.breakdown.retry_bytes > 0
        # Retry waste rides inside the WAN total, never beside it.
        assert result.total_bytes == (
            result.breakdown.load_bytes
            + result.breakdown.bypass_bytes
            + result.breakdown.retry_bytes
        )

    def test_partial_results_trade_unavailable_for_partial(self):
        # Partials need a reachable server left over, so the trace must
        # span two servers with only one of them dark.
        federation = Federation.single_site(build_catalog(), "sdss")
        radio = Catalog("radio")
        radio.create_table(
            TableSchema("RadioObj", [Column("objID", ColumnType.BIGINT)])
        )
        federation.add_server(DatabaseServer("first", radio))
        queries = [
            PreparedQuery(
                index=i,
                sql=f"x{i}",
                template="t",
                yield_bytes=120,
                bypass_bytes=120,
                table_yields={"PhotoObj": 120.0},
                column_yields={"PhotoObj.objID": 120.0},
                servers=("sdss", "first"),
            )
            for i in range(40)
        ]
        trace = PreparedTrace("twoserver", queries)
        schedule = FaultSchedule(
            seed=5,
            windows=(
                FaultWindow(kind="outage", server="sdss", start=10, end=30),
            ),
        )
        strict = run_single(
            trace, federation, "no-cache", 1500, "table", faults=schedule
        )
        lenient = run_single(
            trace, federation, "no-cache", 1500, "table", faults=schedule,
            partial_results=True,
        )
        assert strict.unavailable_queries > 0
        assert strict.partial_queries == 0
        # The shipped half is discarded in strict mode: retry waste.
        assert strict.breakdown.retry_bytes > 0
        assert lenient.partial_queries == strict.unavailable_queries
        assert lenient.unavailable_queries == 0

    def test_downtime_counters_flush_to_instrumentation(
        self, federation, trace
    ):
        schedule = FaultSchedule(
            seed=5,
            windows=(
                FaultWindow(kind="outage", server="sdss", start=10, end=20),
            ),
        )
        sink = Instrumentation(max_events=0)
        run_single(
            trace, federation, "no-cache", 1500, "table", faults=schedule,
            instrumentation=sink,
        )
        counters = sink.counters
        assert counters.get("faults.downtime_ticks.sdss", 0) > 0
        assert counters.get("transport.requests", 0) > 0
        assert counters.get("transport.failures", 0) > 0
