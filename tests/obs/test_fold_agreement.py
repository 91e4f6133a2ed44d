"""Every fold of a run agrees on what a hit, a load and a peer hit are.

``SimulationResult.charge`` follows the query's resolved ``outcome``,
nets out rolled-back loads and counts peer hits in objects.  The event
folds — instrumentation counters, the metrics probe, ``repro-report`` —
must say the same, and a result rebuilt from the persisted trace must
equal the live one.  Under faults and at column granularity they used
to follow the policy's *intent* and count peer hits in queries.
"""

import pytest

from repro.core.instrumentation import (
    DecisionEvent,
    Instrumentation,
    served_hit,
)
from repro.faults import FaultSchedule, FaultWindow
from repro.federation import Federation
from repro.fleet import split_trace
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.obs.report import result_from_trace, summarize_events
from repro.obs.trace_io import TraceWriter, read_trace
from repro.sim.multi import ClientSite, simulate_fleet
from repro.sim.runner import build_policy, run_single
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog

COLUMNS = [
    f"{table}.{column}"
    for table, columns in (
        ("PhotoObj", ("objID", "ra", "dec", "type", "modelMag_g", "modelMag_r")),
        ("SpecObj", ("specObjID", "objID", "z", "zConf", "specClass")),
    )
    for column in columns
]


def two_column_trace(n=240, name="fold", repeat=1):
    """Every query reads two columns, walking the whole schema;
    ``repeat`` consecutive queries read the same pair."""
    queries = []
    for i in range(n):
        start = (i // repeat) * 3
        picked = [COLUMNS[(start + k) % len(COLUMNS)] for k in range(2)]
        queries.append(
            PreparedQuery(
                index=i,
                sql=f"q{i}",
                template="t",
                yield_bytes=400,
                bypass_bytes=400,
                table_yields={c.split(".")[0]: 200.0 for c in picked},
                column_yields={c: 200.0 for c in picked},
                servers=("sdss",),
            )
        )
    return PreparedTrace(name, queries)


@pytest.fixture
def federation():
    return Federation.single_site(build_catalog(), "sdss")


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
    @pytest.fixture
    def run(self, federation, tmp_path):
        trace = two_column_trace()
        schedule = FaultSchedule(
            seed=5,
            windows=(
                FaultWindow(
                    kind="flap", server="sdss", start=0, end=len(trace),
                    period=6, duty=0.5,
                ),
            ),
        )
        manifest = RunManifest(
            workload=trace.name, policy="rate-profile",
            granularity="column", capacity_bytes=300,
        )
        sink = Instrumentation()
        registry = MetricsRegistry()
        sink.add_probe(MetricsProbe(registry))
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, manifest) as writer:
            sink.add_probe(writer)
            result = run_single(
                trace, federation, "rate-profile", 300, "column",
                record_series=False, instrumentation=sink, faults=schedule,
            )
        return result, sink, registry, path

    def test_the_run_exercises_the_disagreement(self, run):
        result, sink, _, _ = run
        # Loads were rolled back and intended serves went dark: the
        # folds below only differ from intent on such a run.
        assert result.failed_loads > 0
        intended = sum(1 for e in sink.events if e.served_from_cache)
        assert intended > result.served_queries

    def test_result_rebuilt_from_the_trace_equals_the_live_one(self, run):
        result, _, _, path = run
        manifest, events = read_trace(path)
        rebuilt = result_from_trace(manifest, events)
        live = result.summary()
        # The rebuilt view has no no-cache baseline to compare against.
        live.pop("savings_factor")
        replayed = rebuilt.summary()
        replayed.pop("savings_factor")
        assert replayed == live

    def test_counters_probe_and_report_agree_with_the_result(self, run):
        result, sink, registry, _ = run
        metrics = summarize_events(list(sink.events))
        assert sink.counters["decisions.served"] == result.served_queries
        assert sink.counters["decisions.loads"] == result.loads
        assert (metrics.served, metrics.loads) == (
            result.served_queries, result.loads,
        )
        assert metrics.hit_rate == pytest.approx(result.hit_rate)
        assert (
            f"repro_decisions_served_total {result.served_queries}\n"
            in registry.render_prometheus()
        )
        assert sink.counters["tenant.untagged.served"] == result.served_queries


class TestColumnFleet:
    def test_peer_hits_count_objects_not_queries(self, federation):
        # Four consecutive queries — one per shard — read the same two
        # columns: the first loads them, its siblings fetch both from it.
        trace = two_column_trace(n=120, name="fleet", repeat=4)
        clients = [
            ClientSite(
                f"s{i}",
                shard_trace,
                build_policy("lru", 10**9, shard_trace, federation, "column"),
            )
            for i, shard_trace in enumerate(split_trace(trace, 4, prefix="s"))
        ]
        sink = Instrumentation()
        result = simulate_fleet(
            federation, clients, granularity="column", cooperative=True,
            probe_all_siblings=True, instrumentation=sink,
        )
        peer_queries = sum(1 for e in sink.events if e.peer_bytes)
        # Some query took two columns from siblings, so counting
        # queries undercounts.
        assert result.peer_hits > peer_queries > 0
        assert sink.counters["fleet.peer_hits"] == result.peer_hits
        assert sum(e.peer_hits for e in sink.events) == result.peer_hits
