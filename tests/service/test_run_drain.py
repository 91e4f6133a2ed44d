"""The run drain: admitted queries are decided in runs under one
decision-lock hold, each settling only its own submitter — and a
closing service answers its whole backlog.  The round-robin bound over
HTTP is pinned in ``test_server_http``."""

import asyncio
import json

import pytest

from repro.core.policies.rate_profile import RateProfilePolicy
from repro.obs.spans import STAGE_QUERY, SpanTracer
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.loadgen import DriveReport, check_complete
from repro.service.protocol import (
    QueryRequest,
    decode_response,
    encode_request,
)
from repro.service.server import MediatorService
from tests.service.conftest import make_federation


def _request(prepared, position, tenant=""):
    return QueryRequest(
        request_id=position, tenant=tenant or prepared.tenant,
        prepared=prepared,
    )


class _FailingPolicy(RateProfilePolicy):
    """Rate-Profile whose ``process`` raises on one chosen call."""

    def __init__(self, capacity_bytes, fail_on):
        super().__init__(capacity_bytes=capacity_bytes)
        self.fail_on = fail_on
        self.calls = 0

    def process(self, query):
        call = self.calls
        self.calls += 1
        if call == self.fail_on:
            raise RuntimeError(f"policy failed on call {call}")
        return super().process(query)


class TestFailureIsolation:
    def test_failed_query_fails_only_its_own_submit(
        self, prepared_trace, capacity
    ):
        queries = prepared_trace.queries

        async def run():
            service = MediatorService(
                make_federation(),
                _FailingPolicy(capacity, fail_on=2),
                config=ServiceConfig(max_inflight=8),
            )
            try:
                # Eight concurrent arrivals: one run of eight.
                outcomes = await asyncio.gather(
                    *(
                        service.submit(_request(queries[i], i))
                        for i in range(8)
                    ),
                    return_exceptions=True,
                )
                inflight = service.stats()["inflight"]
                after = await service.submit(_request(queries[8], 8))
            finally:
                await service.close()
            return service, outcomes, inflight, after

        service, outcomes, inflight, after = asyncio.run(run())
        failed = [o for o in outcomes if isinstance(o, Exception)]
        assert len(failed) == 1 and "call 2" in str(failed[0])
        assert isinstance(outcomes[2], RuntimeError)
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        assert [r.request_id for r in answered] == [0, 1, 3, 4, 5, 6, 7]
        assert all(r.status == "ok" for r in answered)
        assert inflight == 0
        assert after.status == "ok" and after.index == 8
        assert service.stats()["inflight"] == 0
        assert service.gate.decided == 9

    def test_failed_line_answers_in_band_over_http(
        self, prepared_trace, capacity
    ):
        """The HTTP route turns a failed query into an in-band error
        line; the rest of the POST is answered."""
        queries = prepared_trace.queries

        async def run():
            service = MediatorService(
                make_federation(), _FailingPolicy(capacity, fail_on=1)
            )
            body = "".join(
                encode_request(queries[i], i) + "\n" for i in range(4)
            ).encode("utf-8")
            try:
                return await service._route("POST", "/query", body)
            finally:
                await service.close()

        status, _, payload = asyncio.run(run())
        assert status == "200 OK"
        lines = [json.loads(line) for line in payload.splitlines()]
        assert len(lines) == 4
        assert lines[1] == {"error": "policy failed on call 1", "id": 1}
        assert [line.get("status") for line in lines] == [
            "ok", None, "ok", "ok"
        ]


class TestCloseSettlesBacklog:
    def test_close_answers_every_queued_submitter(
        self, prepared_trace, capacity
    ):
        queries = prepared_trace.queries

        async def run():
            service = MediatorService(
                make_federation(),
                RateProfilePolicy(capacity_bytes=capacity),
                config=ServiceConfig(max_inflight=1),
            )
            submits = [
                asyncio.ensure_future(
                    service.submit(_request(queries[i], i, f"t{i % 3}"))
                )
                for i in range(40)
            ]
            await asyncio.sleep(0)
            await service.close()
            responses = await asyncio.wait_for(
                asyncio.gather(*submits), timeout=2.0
            )
            return service, responses

        service, responses = asyncio.run(run())
        assert len(responses) == 40
        assert all(r.status == "ok" for r in responses)
        assert service.gate.decided == 40
        assert service.stats()["inflight"] == 0
        metrics = service.registry.render_prometheus()
        assert loadgen.check_conservation(metrics) == []


    def test_shutdown_over_http_answers_the_backlog(
        self, prepared_trace, capacity
    ):
        """One 40-line POST, then ``POST /shutdown`` on a second
        connection before the first is answered: the drain decides the
        whole backlog and every line comes back."""
        queries = prepared_trace.queries
        body = "".join(
            encode_request(queries[i], i, f"t{i % 3}") + "\n"
            for i in range(40)
        ).encode("utf-8")

        async def exchange(reader, writer, head):
            writer.write(head)
            await writer.drain()
            status = await reader.readline()
            length = 0
            while (line := await reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            return status, await reader.readexactly(length)

        async def run():
            tracer = SpanTracer(seed=7, wall_clock=False, keep_spans=True)
            service = MediatorService(
                make_federation(),
                RateProfilePolicy(capacity_bytes=capacity),
                config=ServiceConfig(max_inflight=1),
                tracer=tracer,
            )
            await service.start()
            serving = asyncio.ensure_future(service.serve_until_shutdown())
            query = await asyncio.open_connection("127.0.0.1", service.port)
            control = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            answer = asyncio.ensure_future(
                exchange(
                    *query,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body,
                )
            )
            while service.stats()["decided"] == 0:
                await asyncio.sleep(0)
            shutdown = await exchange(
                *control,
                b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            )
            decided_at_shutdown = service.stats()["decided"]
            status, payload = await asyncio.wait_for(answer, timeout=10)
            await asyncio.wait_for(serving, timeout=10)
            for _, writer in (query, control):
                writer.close()
            return (
                service, tracer, shutdown, decided_at_shutdown, status,
                payload,
            )

        service, tracer, shutdown, decided_at_shutdown, status, payload = (
            asyncio.run(run())
        )
        assert shutdown == (b"HTTP/1.1 200 OK\r\n", b"shutting down\n")
        assert decided_at_shutdown < 40  # the POST was still queued
        assert status == b"HTTP/1.1 200 OK\r\n"
        responses = [
            decode_response(line)
            for line in payload.decode("utf-8").splitlines()
        ]
        assert [r.request_id for r in responses] == list(range(40))
        assert all(r.status == "ok" for r in responses)
        assert service.gate.decided == 40
        metrics = service.registry.render_prometheus()
        assert loadgen.check_conservation(metrics) == []
        assert loadgen.parse_metrics(metrics)["repro_decisions_total"] == 40
        roots = [
            span.index
            for span in tracer.spans
            if span.name == STAGE_QUERY and not span.parent_id
        ]
        assert sorted(roots) == sorted(r.index for r in responses)
        assert sorted(roots) == list(range(40))


class TestCheckComplete:
    def _report(self, responses, errors):
        report = DriveReport()
        report.responses = [object()] * responses
        report.errors = ["{}"] * errors
        return report

    def test_complete_when_every_line_is_answered(self):
        assert check_complete(self._report(5, 0), 5) == []
        # An in-band error still answers its line.
        assert check_complete(self._report(4, 1), 5) == []

    @pytest.mark.parametrize("responses,errors", [(4, 0), (0, 0), (6, 0)])
    def test_fails_when_counts_disagree(self, responses, errors):
        (failure,) = check_complete(self._report(responses, errors), 5)
        assert f"{responses + errors} request lines answered" in failure
        assert "of 5 sent" in failure
