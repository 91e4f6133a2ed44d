"""The HTTP surface: wire protocol, routes, and a live end-to-end run.

The live tests boot a real :class:`MediatorService` on an ephemeral
loopback port inside a background event-loop thread and talk to it
with the loadgen's stdlib HTTP client — the same pairing the CI
service-smoke job exercises from two processes.
"""

import asyncio
import json
import socket
from urllib.request import urlopen

import pytest

from repro.core.policies.rate_profile import RateProfilePolicy
from repro.errors import ConfigurationError
from repro.obs.httpd import (
    CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
)
from repro.obs.slo import Objective, SLOEngine, SLOSpec
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ProtocolError,
    decode_request,
    decode_response,
    encode_request,
)
from repro.service.server import MediatorService
from repro.workload.stream import MaterializedStream
from tests.service.conftest import make_federation
from tests.service.live import ServerThread


class TestProtocol:
    def test_request_round_trip(self, prepared_trace):
        prepared = prepared_trace.queries[0]
        line = encode_request(prepared, request_id=7, tenant="astro-1")
        request = decode_request(line)
        assert request.request_id == 7
        assert request.tenant == "astro-1"
        # The tenant override wins over the trace's own tag.
        assert request.prepared.tenant == "astro-1"
        assert request.prepared.sql == prepared.sql
        assert request.prepared.bypass_bytes == prepared.bypass_bytes

    def test_malformed_lines_raise_protocol_error(self):
        for line in (
            "not json",
            "[1, 2]",
            '{"id": "seven", "query": {}}',
            '{"id": 1, "tenant": 5, "query": {}}',
            '{"id": 1, "query": "missing"}',
        ):
            with pytest.raises(ProtocolError):
                decode_request(line, line_no=3)

    def test_response_decode_rejects_missing_fields(self):
        with pytest.raises(ProtocolError):
            decode_response('{"id": 1}')


def _availability_engine():
    return SLOEngine(
        SLOSpec(
            name="http-availability",
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
    )


class TestLiveServer:
    def test_observability_routes(self, prepared_trace, capacity):
        with ServerThread(capacity) as server:
            assert loadgen.http_get(server.url, "/healthz").strip() == (
                "ok"
            )
            # No SLO engine configured: /slo is a 404.
            with pytest.raises(ConfigurationError, match="404"):
                loadgen.http_get(server.url, "/slo")
            with pytest.raises(ConfigurationError, match="404"):
                loadgen.http_get(server.url, "/no-such-route")

            report = loadgen.drive_http(
                server.url,
                MaterializedStream(prepared_trace),
                serial=True,
            )
            assert len(report.responses) == len(prepared_trace)
            assert not report.errors

            metrics = loadgen.http_get(server.url, "/metrics")
            assert "repro_decisions_total" in metrics
            assert "repro_tenant_wan_bytes_total" in metrics
            assert loadgen.check_conservation(metrics) == []

            stats = json.loads(loadgen.http_get(server.url, "/stats"))
            assert stats["decided"] == len(prepared_trace)
            assert stats["rejected"] == 0

    @pytest.mark.parametrize(
        "path, content_type",
        [
            ("/metrics", CONTENT_TYPE),
            ("/healthz", TEXT_CONTENT_TYPE),
            ("/slo", JSON_CONTENT_TYPE),
            ("/stats", JSON_CONTENT_TYPE),
        ],
        ids=["metrics", "healthz", "slo", "stats"],
    )
    def test_routes_declare_an_explicit_charset(
        self, capacity, path, content_type
    ):
        with ServerThread(
            capacity, slo_engine=_availability_engine()
        ) as server:
            with urlopen(f"{server.url}{path}", timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == content_type
                assert "charset=utf-8" in content_type

    def test_query_route_reports_protocol_errors_in_band(
        self, prepared_trace, capacity
    ):
        with ServerThread(capacity) as server:
            good = encode_request(
                prepared_trace.queries[0], request_id=0, tenant="t-0"
            )
            body = good + "\n" + "this is not json\n"
            lines = [
                line
                for line in loadgen.http_post(
                    server.url, "/query", body
                ).splitlines()
                if line.strip()
            ]
            assert len(lines) == 2
            ok = decode_response(lines[0])
            assert ok.status == "ok" and ok.tenant == "t-0"
            error = json.loads(lines[1])
            assert "invalid JSON" in error["error"]

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
            b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        ],
        ids=["non-utf8-body", "non-numeric-length", "negative-length"],
    )
    def test_malformed_post_gets_400_and_service_keeps_serving(
        self, prepared_trace, capacity, request_bytes
    ):
        with ServerThread(capacity) as server:
            host, port = server.url[len("http://"):].split(":")
            with socket.create_connection((host, int(port)), 10) as sock:
                sock.sendall(request_bytes)
                sock.settimeout(10)
                answer = sock.recv(4096)
            status, _, rest = answer.partition(b"\r\n")
            assert status == b"HTTP/1.1 400 Bad Request"
            reason = rest.partition(b"\r\n\r\n")[2].decode("utf-8")
            assert reason.endswith("\n") and reason.count("\n") == 1

            # A fresh connection is served as if nothing happened.
            report = loadgen.drive_http(
                server.url,
                MaterializedStream(prepared_trace),
                serial=True,
            )
            assert len(report.responses) == len(prepared_trace)
            assert not report.errors
            metrics = loadgen.http_get(server.url, "/metrics")
            assert f"repro_decisions_total {len(prepared_trace)}\n" in metrics
            assert loadgen.check_conservation(metrics) == []

    def test_concurrent_tenants_conserve_over_http(
        self, prepared_trace, capacity
    ):
        config = ServiceConfig(queue_depth=8, max_inflight=4)
        with ServerThread(capacity, config=config) as server:
            stream = loadgen.fan_out(
                MaterializedStream(prepared_trace), tenants=4, seed=7
            )
            report = loadgen.drive_http(
                server.url, stream, batch_size=16
            )
            assert len(report.responses) == len(prepared_trace)
            assert not report.errors
            assert len(report.by_tenant) == 4
            metrics = loadgen.http_get(server.url, "/metrics")
            assert loadgen.check_conservation(metrics) == []

    def test_late_tenant_waits_at_most_one_rotation(
        self, prepared_trace, capacity
    ):
        """One POST: 30 tenant-A lines, then 2 tenant-B lines.  The
        run drain decides B within the first rotation, not after A's
        backlog."""
        queries = prepared_trace.queries
        tenants = ["a"] * 30 + ["b"] * 2
        body = "".join(
            encode_request(queries[position], position, tenant) + "\n"
            for position, tenant in enumerate(tenants)
        )
        with ServerThread(capacity) as server:
            payload = loadgen.http_post(server.url, "/query", body)
        responses = [decode_response(line) for line in payload.splitlines()]
        assert [r.request_id for r in responses] == list(range(32))
        assert all(r.status == "ok" for r in responses)
        assert sorted(r.index for r in responses) == list(range(32))
        late = [r.index for r in responses if r.tenant == "b"]
        assert len(late) == 2 and max(late) <= 3

    def test_slo_route_with_engine(self, prepared_trace, capacity):
        with ServerThread(
            capacity, slo_engine=_availability_engine()
        ) as server:
            loadgen.drive_http(
                server.url,
                MaterializedStream(prepared_trace),
                serial=True,
            )
            slo = json.loads(loadgen.http_get(server.url, "/slo"))
            assert slo["slo"] == "http-availability"
            assert slo["ok"] is True
            assert slo["objectives"][0]["total"] == len(prepared_trace)


class TestMetricsPage:
    def test_occupancy_gauge_tracks_the_store(
        self, prepared_trace, capacity
    ):
        async def run():
            service = MediatorService(
                make_federation(),
                RateProfilePolicy(capacity_bytes=capacity),
                config=ServiceConfig(max_inflight=4),
            )
            try:
                await loadgen.drive_service(
                    service,
                    loadgen.fan_out(
                        MaterializedStream(prepared_trace), 3, seed=3
                    ),
                )
            finally:
                await service.close()
            return service

        service = asyncio.run(run())
        page = loadgen.parse_metrics(service.registry.render_prometheus())
        used = service.gate.policy.store.used_bytes
        assert used > 0
        assert page["repro_cache_occupancy_bytes"] == used
        assert page["repro_cache_occupancy_bytes_window_max"] >= used
