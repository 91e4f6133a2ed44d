"""Every view of a run agrees on what a hit, a load and a WAN byte are.

A decided query is folded twice: ``Instrumentation.record_decision``
turns the event into named counters (which ``MetricsProbe`` mirrors onto
the scrape page under the ``COUNTER_FAMILIES`` rename table), and
``SimulationResult.charge`` turns it into the run totals — live from the
accounting, offline from the persisted event.  On any run — generated
queries, yields, tenants and fault schedules, one cache or a cooperative
fleet — the live result equals the one rebuilt from the written trace,
the counters equal the result, the page equals the counters, and the
tenant and shard partitions sum to their aggregates.

The two hand-written cases are the runs where the folds once disagreed:
under faults and at column granularity they followed the policy's
*intent* and counted peer hits in queries.
"""

import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrumentation import (
    DecisionEvent,
    Instrumentation,
    served_hit,
)
from repro.faults import FaultSchedule, FaultWindow
from repro.federation import Federation
from repro.obs.manifest import RunManifest
from repro.obs.metrics import COUNTER_FAMILIES, MetricsProbe, MetricsRegistry
from repro.obs.report import result_from_trace
from repro.obs.trace_io import TraceWriter, read_trace
from repro.service.loadgen import check_conservation, parse_metrics
from repro.sim.multi import simulate_fleet
from repro.sim.runner import run_single
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog
from tests.obs.spine_net import (
    COLUMNS,
    fleet_clients,
    flap_schedule,
    two_column_trace,
)

#: Every family the parent commit's ``MetricsProbe`` exported; the
#: resilience namespaces are forwarded under their own names.
PARENT_FAMILIES = frozenset(
    f"repro_{name}"
    for name in (
        "decisions_total", "decisions_served_total",
        "decisions_bypassed_total", "loads_total", "evictions_total",
        "wan_load_bytes_total", "wan_bypass_bytes_total",
        "wan_weighted_cost_total", "retries_total", "wan_retry_bytes_total",
        "hit_rate", "query_wan_bytes", "query_yield_bytes",
        "cache_occupancy_bytes", "outcome_served_total",
        "outcome_bypassed_total", "outcome_partial_total",
        "outcome_unavailable_total", "outcome_shed_total",
        "tenant_decisions_total", "tenant_served_total",
        "tenant_wan_bytes_total", "tenant_weighted_cost_total",
        "shard_decisions_total", "shard_served_total",
        "shard_wan_bytes_total", "shard_peer_bytes_total",
    )
)
PARENT_NAMESPACES = ("repro_transport_", "repro_breaker_", "repro_faults_")


@dataclass(frozen=True)
class Case:
    """One run: a trace, a policy and optionally faults and a fleet."""

    trace: PreparedTrace
    policy: str = "rate-profile"
    capacity: int = 300
    granularity: str = "column"
    faults: Optional[FaultSchedule] = None
    shards: int = 0


@dataclass
class Run:
    """What a case left behind: totals, counters, page and trace."""

    results: Tuple
    sink: Instrumentation
    page: str
    manifest: RunManifest
    events: Tuple[DecisionEvent, ...]


def run_case(case: Case) -> Run:
    federation = Federation.single_site(build_catalog(), "sdss")
    manifest = RunManifest(
        workload=case.trace.name, policy=case.policy,
        granularity=case.granularity, capacity_bytes=case.capacity,
    )
    sink = Instrumentation()
    registry = MetricsRegistry()
    sink.add_probe(MetricsProbe(registry))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.jsonl"
        with TraceWriter(path, manifest) as writer:
            sink.add_probe(writer)
            if case.shards:
                fleet = simulate_fleet(
                    federation,
                    fleet_clients(
                        case.trace, federation, case.shards, case.policy,
                        case.capacity, case.granularity,
                    ),
                    granularity=case.granularity, cooperative=True,
                    probe_all_siblings=True, instrumentation=sink,
                    faults=case.faults,
                )
                results = tuple(fleet.per_client.values())
            else:
                results = (
                    run_single(
                        case.trace, federation, case.policy, case.capacity,
                        case.granularity, record_series=False,
                        instrumentation=sink, faults=case.faults,
                    ),
                )
        manifest, events = read_trace(path)
    return Run(
        results, sink, registry.render_prometheus(), manifest, tuple(events)
    )


def total(run: Run, field) -> float:
    return sum(field(result) for result in run.results)


def assert_rebuilt_equals_live(run: Run) -> None:
    rebuilt = result_from_trace(run.manifest, run.events)
    replayed = rebuilt.summary()
    if len(run.results) == 1:
        live = run.results[0].summary()
        # The rebuilt view has no no-cache baseline to compare against.
        live.pop("savings_factor")
        replayed.pop("savings_factor")
        assert replayed == live
    for key in (
        "queries", "bypass_bytes", "fetch_bytes", "total_bytes", "loads",
        "evictions", "retries", "retry_bytes", "failed_loads",
        "peer_hits", "peer_bytes",
    ):
        assert replayed[key] == total(run, lambda r: r.summary()[key]), key
    for name in (
        "served_queries", "partial_queries", "unavailable_queries",
        "yield_bytes", "served_yield_bytes",
    ):
        assert getattr(rebuilt, name) == total(
            run, lambda r: getattr(r, name)
        ), name


def assert_counters_equal_result(run: Run) -> None:
    counters = run.sink.counters
    queries = total(run, lambda r: r.queries)
    served = total(run, lambda r: r.served_queries)
    expected = {
        "decisions": queries,
        "decisions.served": served,
        "decisions.bypassed": queries - served,
        "decisions.loads": total(run, lambda r: r.loads),
        "decisions.evictions": total(run, lambda r: r.evictions),
        "decisions.retries": total(run, lambda r: r.retries),
        "wan.load_bytes": total(run, lambda r: r.breakdown.load_bytes),
        "wan.bypass_bytes": total(run, lambda r: r.breakdown.bypass_bytes),
        "wan.retry_bytes": total(run, lambda r: r.breakdown.retry_bytes),
        "fleet.peer_bytes": total(run, lambda r: r.breakdown.peer_bytes),
        "fleet.peer_hits": total(run, lambda r: r.peer_hits),
        "decisions.outcome.partial": total(
            run, lambda r: r.partial_queries
        ),
        "decisions.outcome.unavailable": total(
            run, lambda r: r.unavailable_queries
        ),
    }
    for name, value in expected.items():
        assert counters.get(name, 0) == value, name
    assert counters["wan.weighted_cost"] == pytest.approx(
        total(run, lambda r: r.weighted_cost)
    )


def assert_page_mirrors_counters(run: Run) -> None:
    """Every counter the rename table names is on the page under its
    family with the counter's value; nothing else is."""
    series = parse_metrics(run.page)
    counters = run.sink.counters
    mirrored = set()
    for pattern, (exposed, _) in COUNTER_FAMILIES.items():
        if "*" not in pattern:
            assert series[f"repro_{exposed}"] == counters.get(pattern, 0)
            mirrored.add(pattern)
            continue
        matcher = re.compile(re.escape(pattern).replace(r"\*", "(.+)"))
        for name, value in counters.items():
            match = matcher.fullmatch(name)
            if match is not None:
                segment = match.group(1)
                assert (
                    series[f"repro_{exposed.replace('*', segment)}"] == value
                ), name
                mirrored.add(name)
    for name in counters:
        if name not in mirrored:
            exposed = "repro_" + name.replace(".", "_") + "_total"
            assert (exposed in series) == exposed.startswith(
                PARENT_NAMESPACES
            ), name
    families = {
        line.split()[2]
        for line in run.page.splitlines()
        if line.startswith("# TYPE ")
    }
    assert all(
        family in PARENT_FAMILIES or family.startswith(PARENT_NAMESPACES)
        for family in families
    ), families - PARENT_FAMILIES


def assert_partitions_sum_to_aggregates(run: Run) -> None:
    assert check_conservation(run.page) == []
    series = parse_metrics(run.page)
    for family, aggregates in (
        ("repro_shard_decisions_total", ("repro_decisions_total",)),
        ("repro_shard_served_total", ("repro_decisions_served_total",)),
        (
            "repro_shard_wan_bytes_total",
            (
                "repro_wan_load_bytes_total",
                "repro_wan_bypass_bytes_total",
                "repro_wan_retry_bytes_total",
            ),
        ),
    ):
        shards = [
            value
            for name, value in series.items()
            if name.startswith(family + "{")
        ]
        if shards:
            assert sum(shards) == sum(series[name] for name in aggregates)


def assert_folds_agree(run: Run) -> None:
    assert_rebuilt_equals_live(run)
    assert_counters_equal_result(run)
    assert_page_mirrors_counters(run)
    assert_partitions_sum_to_aggregates(run)


# -- generated runs ----------------------------------------------------


@st.composite
def traces(draw):
    picks = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(COLUMNS), min_size=1, max_size=3,
                    unique=True,
                ),
                st.integers(min_value=0, max_value=4000),
                st.sampled_from(("", "astro", "sky.survey")),
            ),
            min_size=1,
            max_size=40,
        )
    )
    queries = []
    for i, (columns, yield_bytes, tenant) in enumerate(picks):
        share = yield_bytes / len(columns)
        tables = {}
        for column in columns:
            table = column.split(".")[0]
            tables[table] = tables.get(table, 0.0) + share
        queries.append(
            PreparedQuery(
                index=i, sql=f"q{i}", template="t",
                yield_bytes=yield_bytes, bypass_bytes=yield_bytes,
                table_yields=tables,
                column_yields={column: share for column in columns},
                servers=("sdss",), tenant=tenant,
            )
        )
    return PreparedTrace("generated", queries)


def fault_schedules(servers):
    def window(kind, server, start, length, rate, period, duty):
        return FaultWindow(
            kind=kind, server=server, start=start, end=start + length,
            cost_multiplier=1.0 + rate if kind == "brownout" else 1.0,
            failure_rate=rate if kind == "brownout" else 0.0,
            period=period, duty=duty,
        )

    windows = st.builds(
        window,
        st.sampled_from(("outage", "brownout", "flap")),
        st.sampled_from(servers),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
    )
    return st.builds(
        lambda seed, drawn: FaultSchedule(seed=seed, windows=tuple(drawn)),
        st.integers(min_value=0, max_value=99),
        st.lists(windows, min_size=1, max_size=3),
    )


def cases(faulted_servers, shards):
    return st.builds(
        Case,
        trace=traces(),
        policy=st.sampled_from(
            ("rate-profile", "online-by", "gds", "lru", "no-cache")
        ),
        capacity=st.integers(min_value=1, max_value=1500),
        granularity=st.sampled_from(("table", "column")),
        faults=st.none() | fault_schedules(faulted_servers),
        shards=shards,
    )


# Derandomized: the tier-1 gate must not depend on the draw.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cases(("sdss",), st.just(0))
    | cases(("s0", "s1"), st.integers(min_value=2, max_value=4))
)
def test_every_fold_agrees_on_generated_runs(case):
    assert_folds_agree(run_case(case))


# -- the hand-written cases ---------------------------------------------


class TestHitPredicate:
    def test_outcome_wins_over_intent(self):
        assert served_hit(True, "")
        assert not served_hit(False, "")
        assert served_hit(True, "served")
        assert not served_hit(True, "unavailable")
        assert not served_hit(True, "partial")
        assert not served_hit(False, "bypassed")

    def test_new_event_fields_serialise_only_when_set(self):
        base = dict(
            index=0, source="simulator", policy="lru", granularity="table",
            served_from_cache=False, loads=("a", "b"), evictions=(),
            load_bytes=10, bypass_bytes=0, weighted_cost=10.0,
        )
        plain = DecisionEvent(**base)
        assert "failed_loads" not in plain.to_json()
        assert "peer_hits" not in plain.to_json()
        marked = DecisionEvent(**base, failed_loads=1, peer_hits=1)
        data = marked.to_json()
        assert (data["failed_loads"], data["peer_hits"]) == (1, 1)
        assert DecisionEvent.from_json(data) == marked
        assert marked.net_loads == 1


class TestFaultedRun:
    @pytest.fixture(scope="class")
    def run(self):
        trace = two_column_trace()
        return run_case(Case(trace, faults=flap_schedule(len(trace))))

    def test_the_run_exercises_the_disagreement(self, run):
        (result,) = run.results
        # Loads were rolled back and intended serves went dark: the
        # folds only differ from intent on such a run.
        assert result.failed_loads > 0
        intended = sum(1 for e in run.events if e.served_from_cache)
        assert intended > result.served_queries

    def test_result_rebuilt_from_the_trace_equals_the_live_one(self, run):
        assert_rebuilt_equals_live(run)

    def test_counters_probe_and_report_agree_with_the_result(self, run):
        assert_folds_agree(run)
        (result,) = run.results
        assert (
            f"repro_decisions_served_total {result.served_queries}\n"
            in run.page
        )


class TestColumnFleet:
    def test_peer_hits_count_objects_not_queries(self):
        # Four consecutive queries — one per shard — read the same two
        # columns: the first loads them, its siblings fetch both from it.
        run = run_case(
            Case(
                two_column_trace(n=120, name="fleet", repeat=4),
                policy="lru", capacity=10**9, shards=4,
            )
        )
        peer_queries = sum(1 for e in run.events if e.peer_bytes)
        # Some query took two columns from siblings, so counting
        # queries undercounts.
        assert total(run, lambda r: r.peer_hits) > peer_queries > 0
        assert_folds_agree(run)
