"""The run drain: admitted queries are decided in runs under one
decision-lock hold, each settling only its own submitter — and a
closing service answers its whole backlog.  The round-robin bound over
HTTP is pinned in ``test_server_http``."""

import asyncio
import json

import pytest

from repro.core.policies.rate_profile import RateProfilePolicy
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.loadgen import DriveReport, check_complete
from repro.service.protocol import QueryRequest, encode_request
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
