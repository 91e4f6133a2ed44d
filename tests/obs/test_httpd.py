"""The live HTTP surface whose content types :mod:`repro.obs.httpd` names.

``repro-serve`` is the one live ``/metrics``, ``/healthz`` and
``/slo``; each test boots a real service on an ephemeral loopback port
and scrapes it over HTTP.
"""

import json
import urllib.error
from urllib.request import urlopen

import pytest

from repro.core.instrumentation import DecisionEvent
from repro.federation import Mediator
from repro.obs.httpd import CONTENT_TYPE, JSON_CONTENT_TYPE
from repro.obs.slo import Objective, SLOEngine, SLOSpec
from repro.service import loadgen
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import TINY
from repro.workload.stream import MaterializedStream
from tests.service.conftest import make_federation
from tests.service.live import ServerThread


@pytest.fixture(scope="module")
def prepared_trace():
    trace = generate_trace(
        TraceConfig(num_queries=40, flavor="edr", seed=11), TINY
    )
    return prepare_trace(trace, Mediator(make_federation()))


@pytest.fixture(scope="module")
def capacity():
    return make_federation().total_database_bytes() // 3


def _status_of(url):
    try:
        urlopen(url, timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code
    raise AssertionError(f"expected an HTTP error from {url}")


def test_serves_metrics_and_healthz(capacity):
    with ServerThread(capacity) as server:
        with urlopen(f"{server.url}/metrics", timeout=10) as response:
            body = response.read().decode("utf-8")
            assert response.headers["Content-Type"] == CONTENT_TYPE
        assert "repro_decisions_total 0\n" in body

        with urlopen(f"{server.url}/healthz", timeout=10) as response:
            assert response.read() == b"ok\n"


def test_unknown_path_is_404(capacity):
    with ServerThread(capacity) as server:
        assert _status_of(f"{server.url}/nope") == 404


def test_live_updates_between_scrapes(prepared_trace, capacity):
    with ServerThread(capacity) as server:
        before = loadgen.parse_metrics(
            loadgen.http_get(server.url, "/metrics")
        )
        assert before["repro_decisions_total"] == 0

        # Two drives, scraped in between: each page is read from the
        # counters as they stand.
        for drive in (1, 2):
            report = loadgen.drive_http(
                server.url, MaterializedStream(prepared_trace), serial=True
            )
            assert len(report.responses) == len(prepared_trace)
            assert not report.errors
            metrics = loadgen.http_get(server.url, "/metrics")
            assert loadgen.check_conservation(metrics) == []
            assert loadgen.parse_metrics(metrics)[
                "repro_decisions_total"
            ] == drive * len(prepared_trace)


def test_slo_endpoint_serves_engine_state(capacity):
    spec = SLOSpec(
        name="live",
        objectives=(
            Objective(name="availability", kind="availability", target=0.9),
        ),
    )
    engine = SLOEngine(spec)
    for index in range(10):
        engine.observe_event(
            DecisionEvent(
                index=index,
                source="simulator",
                policy="rate-profile",
                granularity="table",
                served_from_cache=False,
                loads=(),
                evictions=(),
                load_bytes=0,
                bypass_bytes=10,
                weighted_cost=10.0,
                outcome="bypassed",
            )
        )
    with ServerThread(capacity, slo_engine=engine) as server:
        with urlopen(f"{server.url}/slo", timeout=10) as response:
            assert response.headers["Content-Type"] == JSON_CONTENT_TYPE
            payload = json.loads(response.read().decode("utf-8"))
    assert payload["slo"] == "live"
    assert payload["ok"] is True
    assert payload["objectives"][0]["total"] == 10


def test_slo_endpoint_404_without_engine(capacity):
    with ServerThread(capacity) as server:
        assert _status_of(f"{server.url}/slo") == 404
