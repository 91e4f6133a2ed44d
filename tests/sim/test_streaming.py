"""Streaming accounting: SampledSeries bounds and the stream==batch
golden-equivalence guarantee.

``Simulator.run_stream`` promises decisions and WAN totals that are
byte-identical to the batch ``run`` over the same queries, with memory
independent of trace length.  These tests pin both halves: the adaptive
series keeps its point bound and stride invariant at any length, and a
generated exact-yield stream replays to the same accounting — per-query
cumulative series included — as the materialized prepare-then-run
pipeline it replaces.
"""

import pytest

from repro.core.yield_model import make_yield_source
from repro.errors import CacheError
from repro.federation import mediator as mediator_module
from repro.federation.mediator import Mediator
from repro.sim.runner import build_policy
from repro.sim.simulator import Simulator
from repro.sim.streaming import SampledSeries
from repro.sqlengine import vectorized
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.stream import GeneratedStream, MaterializedStream

CAPACITY = 2_000_000


class TestSampledSeries:
    def test_records_everything_while_small(self):
        series = SampledSeries(max_points=64)
        values = [float(i) for i in range(1, 11)]
        for value in values:
            series.observe(value)
        assert series.stride == 1
        assert series.points() == values

    @pytest.mark.parametrize("length", [5, 100, 1000, 12345, 100000])
    @pytest.mark.parametrize("max_points", [4, 8, 64])
    def test_stride_invariant_at_any_length(self, length, max_points):
        # Retained points always sit at multiples of the final stride,
        # plus one closing point when the last stride is partial.
        series = SampledSeries(max_points=max_points)
        values = [float(i) for i in range(1, length + 1)]
        for value in values:
            series.observe(value)
        stride = series.stride
        expected = values[stride - 1 :: stride]
        if length % stride:
            expected = expected + [values[-1]]
        assert series.points() == expected
        assert len(series.points()) <= max_points + 1
        assert series.observed == length

    def test_memory_bound_holds_forever(self):
        series = SampledSeries(max_points=8)
        for i in range(50_000):
            series.observe(float(i))
            assert len(series._points) <= 8

    def test_final_value_always_included(self):
        series = SampledSeries(max_points=4)
        for i in range(1, 1001):
            series.observe(float(i))
        assert series.points()[-1] == 1000.0

    def test_deterministic(self):
        first = SampledSeries(max_points=16)
        second = SampledSeries(max_points=16)
        for i in range(3333):
            first.observe(float(i * 7))
            second.observe(float(i * 7))
        assert first.points() == second.points()
        assert first.stride == second.stride

    def test_rejects_degenerate_bound(self):
        with pytest.raises(CacheError, match="max_points"):
            SampledSeries(max_points=1)

    def test_empty_series_has_no_points(self):
        assert SampledSeries().points() == []


@pytest.fixture(scope="module")
def mediator():
    return Mediator(build_federation(PROFILES["small"]))


@pytest.fixture(scope="module", params=["edr", "dr1"])
def exact_setup(request, mediator):
    """(prepared batch trace, equivalent exact generated stream)."""
    config = TraceConfig(num_queries=120, flavor=request.param)
    trace = generate_trace(config, PROFILES["small"])
    prepared = prepare_trace(trace, mediator)
    source = make_yield_source("exact", mediator=mediator)
    stream = GeneratedStream(
        config, mediator, source, PROFILES["small"]
    )
    return prepared, stream


class TestStreamBatchGoldenEquivalence:
    @pytest.mark.parametrize("policy_name", ["online-by", "gds", "lru"])
    def test_stream_matches_batch_exactly(
        self, mediator, exact_setup, policy_name
    ):
        # The load-bearing guarantee: same decisions, same WAN bytes,
        # same per-query cumulative series, same final cache content —
        # whether the trace was materialized or streamed.
        prepared, stream = exact_setup
        federation = mediator.federation
        simulator = Simulator(federation, "table", True)

        batch_policy = build_policy(
            policy_name, CAPACITY, prepared, federation, "table"
        )
        batch = simulator.run(prepared, batch_policy, record_series=True)

        stream_policy = build_policy(
            policy_name, CAPACITY, stream, federation, "table"
        )
        streamed = simulator.run_stream(
            stream, stream_policy, record_series=True
        )

        assert streamed.queries == batch.queries == 120
        assert streamed.total_bytes == batch.total_bytes
        assert streamed.breakdown == batch.breakdown
        assert streamed.cumulative_bytes == batch.cumulative_bytes
        assert stream_policy.store.object_ids() == (
            batch_policy.store.object_ids()
        )

    def test_sampled_series_brackets_full_series(
        self, mediator, exact_setup
    ):
        # The default sampled mode may keep fewer points, but every
        # point it keeps must appear in the full series, and totals
        # must be untouched by the sampling.
        prepared, stream = exact_setup
        federation = mediator.federation
        simulator = Simulator(federation, "table", True)
        full = simulator.run(
            prepared,
            build_policy("online-by", CAPACITY, prepared, federation, "table"),
            record_series=True,
        )
        sampled = simulator.run_stream(
            stream,
            build_policy("online-by", CAPACITY, stream, federation, "table"),
            record_series="sampled",
        )
        assert sampled.total_bytes == full.total_bytes
        assert set(sampled.cumulative_bytes) <= set(full.cumulative_bytes)
        assert sampled.cumulative_bytes[-1] == full.cumulative_bytes[-1]

    def test_materialized_stream_is_equivalent_too(self, mediator):
        config = TraceConfig(num_queries=60, flavor="edr")
        trace = generate_trace(config, PROFILES["small"])
        prepared = prepare_trace(trace, mediator)
        federation = mediator.federation
        simulator = Simulator(federation, "table", True)
        batch = simulator.run(
            prepared,
            build_policy("online-by", CAPACITY, prepared, federation, "table"),
            record_series=True,
        )
        wrapped = MaterializedStream(prepared)
        streamed = simulator.run_stream(
            wrapped,
            build_policy("online-by", CAPACITY, wrapped, federation, "table"),
            record_series=True,
        )
        assert streamed.total_bytes == batch.total_bytes
        assert streamed.cumulative_bytes == batch.cumulative_bytes

    def test_run_twice_same_stream_is_deterministic(
        self, mediator, exact_setup
    ):
        _, stream = exact_setup
        federation = mediator.federation
        simulator = Simulator(federation, "table", True)
        results = [
            simulator.run_stream(
                stream,
                build_policy(
                    "online-by", CAPACITY, stream, federation, "table"
                ),
                record_series="sampled",
            )
            for _ in range(2)
        ]
        assert results[0].total_bytes == results[1].total_bytes
        assert results[0].cumulative_bytes == results[1].cumulative_bytes
        assert results[0].breakdown == results[1].breakdown

    def test_static_policy_needs_stream_totals(self, mediator, exact_setup):
        # A bare generated stream has no object totals; the static
        # policy must refuse loudly instead of taking a silent
        # counting pass.
        _, stream = exact_setup
        with pytest.raises(CacheError, match="object totals"):
            build_policy(
                "static", CAPACITY, stream, mediator.federation, "table"
            )


class TestTreesAreBuiltOnlyWhenRead:
    """``ShapePlanner.tree_builds`` notices a silent de-optimisation:
    pricing a query from statistics, or counting it exactly with its
    shape's count program, needs the shape's shared facts and the
    literal values, never the rebound trees."""

    QUERIES = 2000

    def _replay(self, mode):
        mediator = Mediator(build_federation(PROFILES["small"]))
        source = make_yield_source(mode, mediator=mediator)
        stream = GeneratedStream(
            TraceConfig(num_queries=self.QUERIES, flavor="edr"),
            mediator,
            source,
            PROFILES["small"],
        )
        policy = build_policy(
            "online-by", CAPACITY, stream, mediator.federation, "table"
        )
        result = Simulator(mediator.federation, "table").run_stream(
            stream, policy, record_series="sampled"
        )
        assert result.queries == self.QUERIES
        return mediator._shapes

    @staticmethod
    def _verified(planner):
        return sum(
            1
            for entry in planner._shapes.values()
            if entry is not None and entry.verified
        )

    def test_estimated_replay_builds_trees_once_per_shape(self):
        planner = self._replay("estimated")
        verified = self._verified(planner)
        assert planner.fallbacks == 0
        assert planner.shape_hits > self.QUERIES // 2
        assert planner.tree_builds == verified <= planner.cached_shapes

    def test_exact_replay_builds_every_hit(self, monkeypatch):
        """Every hit the count program cannot count from its literals
        alone (a mask declines, or its rows are built) builds its trees;
        with numpy no other hit does beyond each shape's first-rebind
        check, and without numpy every hit does."""
        declined = []
        execute = mediator_module.execute_plan

        def spy(plan, provider):
            # A shape hit whose trees nothing has read yet.
            unbuilt = plan.literals is not None and plan._bind is not None
            result = execute(plan, provider)
            if unbuilt:
                program = plan.facts.fill(
                    "exact_program", _held_already, plan, owner=provider
                )
                if program(plan.literals) is None:
                    declined.append(plan)
            return result

        monkeypatch.setattr(mediator_module, "execute_plan", spy)
        planner = self._replay("exact")
        assert planner.shape_hits > self.QUERIES // 2
        verified = self._verified(planner)
        assert planner.tree_builds == verified + len(declined)
        if not vectorized.HAVE_NUMPY:
            assert planner.tree_builds == planner.shape_hits


def _held_already(plan):
    raise AssertionError("execute_plan fills the count program first")
