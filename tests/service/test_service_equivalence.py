"""Golden equivalence: the service is ``run_stream`` with a server on.

Three drivers now share the decision pipeline — Simulator, proxy, and
MediatorService.  The acceptance bar for the third: a single-tenant
serial service run is *byte-identical* to ``run_stream`` (decisions,
events, WAN totals, cumulative series), and a concurrent ≥4-tenant run
under admission pressure keeps the availability SLO green — shed
queries are still answered; only refusals burn the budget.
"""

import asyncio
import dataclasses

import pytest

from repro.core.instrumentation import Instrumentation
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.obs.report import main as report_main
from repro.obs.slo import Objective, SLOEngine, SLOSpec
from repro.obs.spans import STAGE_QUERY, SpanTracer
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.server import MediatorService
from repro.sim.simulator import Simulator
from repro.workload.stream import MaterializedStream
from tests.service.conftest import make_federation


def _reference(prepared, capacity):
    """The offline ``run_stream`` run the service must reproduce."""
    instr = Instrumentation()
    simulator = Simulator(
        make_federation(), "table", instrumentation=instr
    )
    result = simulator.run_stream(
        MaterializedStream(prepared),
        RateProfilePolicy(capacity_bytes=capacity),
        record_series="sampled",
    )
    return result, list(instr.events)


def _service_run(
    prepared,
    capacity,
    tenants=1,
    seed=0,
    config=None,
    slo_engine=None,
    tracer=None,
):
    instr = Instrumentation()

    async def run():
        service = MediatorService(
            make_federation(),
            RateProfilePolicy(capacity_bytes=capacity),
            config=config,
            instrumentation=instr,
            slo_engine=slo_engine,
            tracer=tracer,
        )
        try:
            stream = loadgen.fan_out(
                MaterializedStream(prepared), tenants, seed
            )
            report = await loadgen.drive_service(
                service, stream, serial=(tenants == 1)
            )
        finally:
            await service.close()
        return service.result(), report

    result, report = asyncio.run(run())
    return result, list(instr.events), report


class TestSingleTenantByteIdentity:
    def test_results_and_events_identical(
        self, prepared_trace, capacity
    ):
        ref_result, ref_events = _reference(prepared_trace, capacity)
        svc_result, svc_events, report = _service_run(
            prepared_trace, capacity
        )
        assert report.by_status == {"ok": len(prepared_trace)}

        # WAN accounting, decision counts, and context — exact.
        assert svc_result.queries == ref_result.queries
        assert svc_result.served_queries == ref_result.served_queries
        assert svc_result.loads == ref_result.loads
        assert svc_result.evictions == ref_result.evictions
        assert svc_result.breakdown == ref_result.breakdown
        assert svc_result.total_bytes == ref_result.total_bytes
        assert svc_result.weighted_cost == ref_result.weighted_cost
        assert svc_result.sequence_bytes == ref_result.sequence_bytes
        # Same series sampler on both sides: identical points.
        assert svc_result.series_stride == ref_result.series_stride
        assert svc_result.cumulative_bytes == ref_result.cumulative_bytes

        # Event-by-event identity, modulo the emitting driver's name.
        assert len(svc_events) == len(ref_events)
        for svc_event, ref_event in zip(svc_events, ref_events):
            assert dataclasses.replace(
                svc_event, source=""
            ) == dataclasses.replace(ref_event, source="")
        assert {event.source for event in svc_events} == {"service"}

    def test_responses_report_per_query_accounting(
        self, prepared_trace, capacity
    ):
        ref_result, _ = _reference(prepared_trace, capacity)
        _, _, report = _service_run(prepared_trace, capacity)
        # Response order is request order in serial mode, and the
        # summed per-response WAN matches the run total.
        indexes = [response.index for response in report.responses]
        assert indexes == list(range(len(prepared_trace)))
        assert report.wan_bytes == int(ref_result.total_bytes)


class TestReportDiffGate:
    def test_diff_between_service_and_simulator_traces_is_clean(
        self, prepared_trace, capacity, tmp_path, capsys
    ):
        """``repro-report --diff`` exits 0 across the two drivers —
        the check the CI service-smoke job automates."""
        from repro.obs.manifest import RunManifest, wall_clock_timestamp
        from repro.obs.trace_io import TraceWriter

        paths = {}
        for source in ("simulator", "service"):
            manifest = RunManifest(
                workload=prepared_trace.name,
                policy="rate-profile",
                granularity="table",
                capacity_bytes=capacity,
                source=source,
                created_at=wall_clock_timestamp(),
            )
            path = tmp_path / f"trace-{source}.jsonl"
            sink = Instrumentation(max_events=0)
            with TraceWriter(path, manifest) as writer:
                sink.add_probe(writer)
                if source == "simulator":
                    simulator = Simulator(
                        make_federation(), "table", instrumentation=sink
                    )
                    simulator.run_stream(
                        MaterializedStream(prepared_trace),
                        RateProfilePolicy(capacity_bytes=capacity),
                        record_series=False,
                    )
                else:

                    async def run():
                        service = MediatorService(
                            make_federation(),
                            RateProfilePolicy(capacity_bytes=capacity),
                            instrumentation=sink,
                        )
                        try:
                            await loadgen.drive_service(
                                service,
                                MaterializedStream(prepared_trace),
                                serial=True,
                            )
                        finally:
                            await service.close()

                    asyncio.run(run())
            assert writer.events_written == len(prepared_trace)
            paths[source] = str(path)

        exit_code = report_main(
            ["--diff", paths["simulator"], paths["service"]]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "regression" not in out.lower() or "no regression" in (
            out.lower()
        )


class TestAvailabilityUnderShedding:
    def test_shedding_keeps_availability_slo_green(
        self, prepared_trace, capacity
    ):
        """Four tenants under real admission pressure: queries shed to
        bypass, none (at these depths) are refused, and the
        availability objective stays green — shedding is degraded
        service, not an outage."""
        spec = SLOSpec(
            name="service-availability",
            objectives=(
                Objective(
                    name="availability",
                    kind="availability",
                    target=0.98,
                    long_window=200,
                    short_window=50,
                    burn_threshold=10.0,
                ),
            ),
        )
        engine = SLOEngine(spec)
        config = ServiceConfig(
            queue_depth=4, reject_depth=1000, max_inflight=2
        )
        result, _, report = _service_run(
            prepared_trace,
            capacity,
            tenants=4,
            seed=11,
            config=config,
            slo_engine=engine,
        )
        assert report.by_status.get("shed", 0) > 0
        assert result.unavailable_queries == 0
        slo = engine.evaluate().to_json()
        assert slo["ok"] is True
        availability = slo["objectives"][0]
        assert availability["bad"] == 0
        assert availability["compliance"] == pytest.approx(1.0)

    def test_refusals_burn_the_availability_budget(
        self, prepared_trace, capacity
    ):
        """Same pressure with a tight hard bound: rejects surface as
        unavailable and the SLO sees every one of them."""
        spec = SLOSpec(
            name="service-availability",
            objectives=(
                Objective(
                    name="availability",
                    kind="availability",
                    target=0.999,
                    long_window=200,
                    short_window=50,
                    burn_threshold=1.0,
                ),
            ),
        )
        engine = SLOEngine(spec)
        config = ServiceConfig(
            queue_depth=2, reject_depth=8, max_inflight=1
        )
        result, _, report = _service_run(
            prepared_trace,
            capacity,
            tenants=4,
            seed=11,
            config=config,
            slo_engine=engine,
        )
        rejected = report.by_status.get("rejected", 0)
        assert rejected > 0
        assert result.unavailable_queries == rejected
        availability = engine.evaluate().to_json()["objectives"][0]
        assert availability["bad"] == rejected

    def test_every_decided_query_has_one_root_span(
        self, prepared_trace, capacity
    ):
        """Shed and refused queries are decided queries: each gets its
        ``query`` root like any other, labelled with its outcome."""
        tracer = SpanTracer(wall_clock=False, keep_spans=True)
        config = ServiceConfig(
            queue_depth=2, reject_depth=8, max_inflight=1
        )
        result, _, report = _service_run(
            prepared_trace,
            capacity,
            tenants=4,
            seed=11,
            config=config,
            tracer=tracer,
        )
        shed = report.by_status.get("shed", 0)
        rejected = report.by_status.get("rejected", 0)
        assert shed > 0 and rejected > 0
        roots = [span for span in tracer.spans if span.name == STAGE_QUERY]
        assert len(roots) == result.queries == len(prepared_trace)
        assert sorted(root.index for root in roots) == list(
            range(result.queries)
        )
        outcomes = [dict(root.attrs).get("outcome", "") for root in roots]
        assert outcomes.count("shed") == shed
        assert outcomes.count("unavailable") == rejected
