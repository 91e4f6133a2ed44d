"""The trace replayer as load generator for the mediator service.

``repro.service.loadgen`` fans a prepared
:class:`~repro.workload.stream.QueryStream` out across simulated
tenants (:class:`~repro.workload.stream.TenantFanoutStream` — a seeded
keyed-hash interleave, so the same seed replays the same arrival
pattern) and drives the service either **in-process** (the test
suites' deterministic mode) or **over HTTP** (the CI smoke job's
mode, one thread per tenant for genuine concurrency).

After a drive, :func:`check_conservation` parses the service's
``/metrics`` exposition and verifies the paper-keeping invariant that
makes per-tenant WAN attribution trustworthy: summing any tenant
counter family over its labels reproduces the untagged aggregate
exactly — attribution is a partition, not a sample.

CLI (HTTP mode)::

    python -m repro.service.loadgen --url http://127.0.0.1:8791 \\
        --trace edr.jsonl.prepared.jsonl --tenants 3 --seed 7 \\
        --check-conservation --shutdown
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import sys
import time
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import parse_bounded_int
from repro.service.protocol import (
    QueryRequest,
    QueryResponse,
    decode_response,
    encode_request,
)
from repro.service.server import MediatorService
from repro.workload.stream import (
    MaterializedStream,
    QueryStream,
    TenantFanoutStream,
)
from repro.workload.trace import PreparedQuery, PreparedTrace

#: Metric families whose per-label sums must equal these aggregates.
#: wan bytes: loads + bypass + retry waste (the DecisionEvent total).
_CONSERVATION_CHECKS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro_tenant_decisions_total", ("repro_decisions_total",)),
    ("repro_tenant_served_total", ("repro_decisions_served_total",)),
    (
        "repro_tenant_wan_bytes_total",
        (
            "repro_wan_load_bytes_total",
            "repro_wan_bypass_bytes_total",
            "repro_wan_retry_bytes_total",
        ),
    ),
    (
        "repro_tenant_weighted_cost_total",
        ("repro_wan_weighted_cost_total",),
    ),
)


@dataclass
class DriveReport:
    """What one load-generation pass observed."""

    responses: List[QueryResponse] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def by_status(self) -> Dict[str, int]:
        return dict(Counter(r.status for r in self.responses))

    @property
    def by_tenant(self) -> Dict[str, int]:
        return dict(Counter(r.tenant for r in self.responses))

    @property
    def wan_bytes(self) -> int:
        return sum(r.wan_bytes for r in self.responses)


def fan_out(
    stream: QueryStream, tenants: int, seed: int = 0
) -> QueryStream:
    """Wrap ``stream`` in a seeded tenant fan-out (identity at 1)."""
    return TenantFanoutStream(stream, tenants, seed)


def requests_from(
    stream: Iterable[PreparedQuery],
) -> List[QueryRequest]:
    """Materialize the arrival sequence as protocol requests."""
    return [
        QueryRequest(
            request_id=position, tenant=prepared.tenant,
            prepared=prepared,
        )
        for position, prepared in enumerate(stream)
    ]


async def drive_service(
    service: MediatorService,
    stream: Iterable[PreparedQuery],
    serial: bool = False,
) -> DriveReport:
    """Drive an in-process service with ``stream``'s arrival order.

    ``serial=True`` awaits each response before submitting the next —
    the single-tenant golden-equivalence mode.  Otherwise every
    request is submitted up front (arrival order = stream order) and
    responses interleave under the scheduler.
    """
    report = DriveReport()
    requests = requests_from(stream)
    if serial:
        for request in requests:
            report.responses.append(await service.submit(request))
    else:
        report.responses = list(
            await asyncio.gather(
                *(service.submit(request) for request in requests)
            )
        )
    return report


def _split_url(url: str) -> Tuple[str, int]:
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http" or parsed.hostname is None:
        raise ConfigurationError(
            f"--url must be an http://host:port URL, got {url!r}"
        )
    return parsed.hostname, parsed.port or 80


def http_get(url: str, path: str, timeout: float = 10.0) -> str:
    """One GET against the service; returns the decoded body."""
    host, port = _split_url(url)
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read().decode("utf-8")
        if response.status != 200:
            raise ConfigurationError(
                f"GET {path} -> {response.status}: {body.strip()}"
            )
        return body
    finally:
        connection.close()


def http_post(
    url: str, path: str, body: str, timeout: float = 60.0
) -> str:
    """One POST against the service; returns the decoded body."""
    host, port = _split_url(url)
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            path,
            body.encode("utf-8"),
            {"Content-Type": "application/jsonlines; charset=utf-8"},
        )
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        if response.status != 200:
            raise ConfigurationError(
                f"POST {path} -> {response.status}: {payload.strip()}"
            )
        return payload
    finally:
        connection.close()


def wait_ready(
    url: str, attempts: int = 100, delay: float = 0.1
) -> None:
    """Poll ``/healthz`` until the service answers (or give up)."""
    for attempt in range(attempts):
        try:
            if http_get(url, "/healthz").strip() == "ok":
                return
        except (ConfigurationError, OSError):
            pass
        time.sleep(delay)
    raise ConfigurationError(
        f"service at {url} not ready after {attempts} attempts"
    )


def _post_batches(
    url: str,
    requests: Sequence[QueryRequest],
    batch_size: int,
    report: DriveReport,
) -> None:
    for start in range(0, len(requests), batch_size):
        batch = requests[start:start + batch_size]
        body = "".join(
            encode_request(
                request.prepared, request.request_id, request.tenant
            )
            + "\n"
            for request in batch
        )
        for line in http_post(url, "/query", body).splitlines():
            if not line.strip():
                continue
            if '"error"' in line and '"status"' not in line:
                report.errors.append(line)
                continue
            report.responses.append(decode_response(line))


def drive_http(
    url: str,
    stream: Iterable[PreparedQuery],
    batch_size: int = 64,
    serial: bool = False,
) -> DriveReport:
    """Drive a remote service over HTTP.

    Serial mode posts one request at a time over one logical client —
    arrival order is exactly stream order (the golden-equivalence
    mode).  Concurrent mode groups requests by tenant (preserving each
    tenant's FIFO order) and posts each tenant's batches from its own
    thread, so tenants genuinely race on the server's admission clock.
    """
    report = DriveReport()
    requests = requests_from(stream)
    if serial:
        _post_batches(url, requests, 1, report)
        return report
    lanes: Dict[str, List[QueryRequest]] = {}
    for request in requests:
        lanes.setdefault(request.tenant, []).append(request)
    if len(lanes) <= 1:
        _post_batches(url, requests, batch_size, report)
        return report
    with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
        futures = [
            pool.submit(
                _post_batches, url, lane, batch_size, report
            )
            for _tenant, lane in sorted(lanes.items())
        ]
        for future in futures:
            future.result()
    return report


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> {series (with labels): value}."""
    series: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def check_conservation(
    metrics_text: str, tolerance: float = 1e-6
) -> List[str]:
    """Per-tenant sums must reproduce the untagged aggregates.

    Returns human-readable failure lines (empty == conserved).  Byte
    and decision families must match exactly; the weighted-cost family
    gets a relative ``tolerance`` for float summation order.
    """
    series = parse_metrics(metrics_text)
    failures: List[str] = []
    for family, aggregates in _CONSERVATION_CHECKS:
        tenant_sum = sum(
            value
            for name, value in series.items()
            if name.startswith(family + "{")
        )
        aggregate = sum(series.get(name, 0.0) for name in aggregates)
        bound = tolerance * max(1.0, abs(aggregate))
        if abs(tenant_sum - aggregate) > bound:
            failures.append(
                f"{family}: tenant sum {tenant_sum!r} != aggregate "
                f"{aggregate!r} ({' + '.join(aggregates)})"
            )
    return failures


def check_complete(report: DriveReport, sent: int) -> List[str]:
    """Every request line sent must come back answered (a response or
    an in-band error).  Returns failure lines (empty == complete)."""
    answered = len(report.responses) + len(report.errors)
    if answered == sent:
        return []
    return [f"{answered} request lines answered of {sent} sent"]


def _summary(report: DriveReport) -> str:
    statuses = ", ".join(
        f"{status}={count}"
        for status, count in sorted(report.by_status.items())
    ) or "none"
    tenants = ", ".join(
        f"{tenant or 'untagged'}={count}"
        for tenant, count in sorted(report.by_tenant.items())
    ) or "none"
    return (
        f"{len(report.responses)} responses ({statuses}); "
        f"tenants: {tenants}; wan_bytes={report.wan_bytes}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Replay a prepared trace against a mediator service.",
    )
    parser.add_argument("--url", required=True, help="service base URL")
    parser.add_argument(
        "--trace", required=True, help="prepared trace (JSONL)"
    )
    parser.add_argument(
        "--tenants", default="2",
        help="simulated tenant count (1 keeps original tags)",
    )
    parser.add_argument(
        "--seed", default="0", help="tenant-interleave seed"
    )
    parser.add_argument(
        "--batch", default="64", help="requests per POST body"
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="one request at a time, in trace order",
    )
    parser.add_argument(
        "--check-conservation", action="store_true",
        help=(
            "after the drive, scrape /metrics and require per-tenant "
            "sums to equal the untagged totals"
        ),
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="POST /shutdown after driving (flushes server sinks)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tenants = parse_bounded_int(
            args.tenants, source="--tenants", minimum=1,
            what="tenant count",
        )
        seed = parse_bounded_int(
            args.seed, source="--seed", minimum=0, what="seed"
        )
        batch = parse_bounded_int(
            args.batch, source="--batch", minimum=1,
            what="batch size",
        )
        _split_url(args.url)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        prepared = PreparedTrace.load(args.trace)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    arrivals = list(fan_out(MaterializedStream(prepared), tenants, seed))
    try:
        wait_ready(args.url)
        report = drive_http(
            args.url, arrivals, batch_size=batch, serial=args.serial
        )
        print(_summary(report))
        for error in report.errors:
            print(f"error response: {error}", file=sys.stderr)
        failures = check_complete(report, len(arrivals))
        for failure in failures:
            print(f"completeness: {failure}", file=sys.stderr)
        if args.check_conservation:
            conservation = check_conservation(
                http_get(args.url, "/metrics")
            )
            for failure in conservation:
                print(f"conservation: {failure}", file=sys.stderr)
            if not conservation:
                print("per-tenant series sum to untagged totals")
            failures += conservation
        if args.shutdown:
            print(http_post(args.url, "/shutdown", "").strip())
    except (ConfigurationError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 1 if (report.errors or failures) else 0


if __name__ == "__main__":
    sys.exit(main())
