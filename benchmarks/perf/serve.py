"""The two service workloads: ``repro-serve`` as a child process, driven
over HTTP by the benchmark's own keep-alive client.

``repro.service.loadgen.http_post`` opens a new TCP connection per POST,
so driving with it would time ``connect()``; :class:`KeepAliveClient`
holds one HTTP/1.1 connection for a whole round instead.

* ``serve_batched`` is a **closed loop**: one client, one connection, the
  next POST (32 request lines) leaves when the previous response is in.
* ``serve_open`` is an **open loop**: single-line POSTs on a seeded
  exponential schedule at a fixed rate, at most two in flight (one
  generator thread busy-polling two connections — this box has two
  cores, the server needs the other), each request timed from the
  moment it was *due*, with the generator's own lateness reported next
  to it.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import select
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import DecisionPipeline
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.service.config import ServiceConfig
from repro.service.loadgen import check_conservation
from repro.service.protocol import (
    QueryResponse,
    decode_request,
    encode_request,
    encode_response,
)
from repro.service.scheduler import AdmissionController
from repro.service.server import MediatorService
from repro.service.session import DecisionGate
from repro.sim.runner import build_policy
from repro.sim.simulator import Simulator
from repro.workload.stream import MaterializedStream, TenantFanoutStream
from repro.workload.trace import PreparedQuery

from benchmarks.perf.common import (
    Check,
    Round,
    Totals,
    check_equal,
    peak_rss_mb,
    percentile,
    result_checks,
    totals_of,
)
from benchmarks.perf.inputs import (
    TraceShape,
    build_federation,
    capacity_for,
    derive_seed,
    prepared_trace,
)
from benchmarks.perf.replay import Traced, Workload, decision_metrics, layer_metrics
from benchmarks.perf.spans import NO_QUERY, SpanLog

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
IO_TIMEOUT_S = 60.0


class KeepAliveClient:
    """A minimal persistent HTTP/1.1 client over one TCP connection.

    ``send`` + ``poll`` is the non-blocking pair the open loop spins
    on; ``request`` is the blocking round trip built from them.
    """

    def __init__(self, host: str, port: int) -> None:
        self._socket = socket.create_connection(
            (host, port), timeout=IO_TIMEOUT_S
        )
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._host = f"{host}:{port}".encode("latin-1")
        self._buffer = bytearray()
        self._body_at = -1
        self._length = 0

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        head = (
            b"%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n"
            % (method.encode(), path.encode(), self._host, len(body))
        )
        self._buffer.clear()
        self._body_at = -1
        self._socket.sendall(head + body)

    def poll(self) -> Optional[bytes]:
        """The response body once it is all here, else None; never
        blocks.  Raises on anything but ``200``."""
        try:
            chunk = self._socket.recv(65536, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return None
        if not chunk:
            raise OSError("server closed the connection")
        buffer = self._buffer
        buffer += chunk
        if self._body_at < 0:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return None
            status, _, headers = bytes(buffer[:head_end]).partition(b"\r\n")
            if b" 200 " not in status + b" ":
                raise OSError(f"HTTP status {status!r}")
            self._length = 0
            for line in headers.split(b"\r\n"):
                key, _, value = line.partition(b":")
                if key.strip().lower() == b"content-length":
                    self._length = int(value)
            self._body_at = head_end + 4
        if len(buffer) < self._body_at + self._length:
            return None
        return bytes(buffer[self._body_at:self._body_at + self._length])

    def request(self, method: str, path: str, body: bytes = b"") -> bytes:
        """One blocking round trip."""
        self.send(method, path, body)
        while True:
            ready, _, _ = select.select([self._socket], [], [], IO_TIMEOUT_S)
            if not ready:
                raise OSError(f"{method} {path}: no response in time")
            payload = self.poll()
            if payload is not None:
                return payload

    def close(self) -> None:
        self._socket.close()


class ServerChild:
    """``python -m repro.service.cli`` as a child process."""

    def __init__(self, arguments: Sequence[str]) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)]
            + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "--port", "0"]
            + list(arguments),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=environment,
            text=True,
        )
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.kill()
            raise

    def _read_address(self) -> Tuple[str, int]:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], BOOT_TIMEOUT_S)
        line = stdout.readline() if ready else ""
        if "serving on http://" not in line:
            raise OSError(f"repro-serve did not come up: {line!r}")
        host, _, port = line.strip().rsplit("/", 1)[-1].partition(":")
        return host, int(port)

    def connect(self) -> KeepAliveClient:
        return KeepAliveClient(self.host, self.port)

    def stop(self) -> None:
        """Graceful ``POST /shutdown``, then wait; kill if it lingers."""
        if self.process.poll() is None:
            try:
                client = self.connect()
                try:
                    client.request("POST", "/shutdown")
                finally:
                    client.close()
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def parse_responses(payload: bytes) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in payload.splitlines() if line.strip()]


class ServeWorkload(Workload):
    """Set-up, teardown and output checks shared by both service loops."""

    granularity = "column"
    policy_name = "rate-profile"
    cache_fraction = 0.3
    tenants = 4
    shape = TraceShape(cycles=1, block_len=250)
    #: One server, one shared cache for the whole run: later rounds
    #: replay the arrivals against an ever warmer cache.
    rounds_identical = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Optional[ServerChild] = None
        self.stats: Dict[str, Any] = {}
        self.metrics_text = ""

    def setup(self) -> None:
        self.federation = build_federation()
        trace = prepared_trace(
            derive_seed(self.seed, "serve", "trace"),
            self.shape,
            self.federation,
        )
        fanout = TenantFanoutStream(
            MaterializedStream(trace),
            self.tenants,
            derive_seed(self.seed, "serve", "tenants"),
        )
        #: One cycle of arrivals; every round replays it in this order
        #: against the same (ever warmer) shared cache.
        self.arrivals: List[PreparedQuery] = list(fanout)
        self.lines: List[str] = [
            encode_request(prepared, position, prepared.tenant)
            for position, prepared in enumerate(self.arrivals)
        ]
        self.responses: List[Dict[str, Any]] = []
        self.stats = {}
        self.metrics_text = ""
        self.server = ServerChild(
            [
                "--granularity", self.granularity,
                "--policy", self.policy_name,
                "--capacity-frac", str(self.cache_fraction),
            ]
        )

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            if self.responses:
                client = server.connect()
                try:
                    self.stats = json.loads(client.request("GET", "/stats"))
                    self.metrics_text = client.request(
                        "GET", "/metrics"
                    ).decode("utf-8")
                finally:
                    client.close()
        finally:
            server.stop()

    def peak_rss_mb(self) -> float:
        """The server children's high-water mark, not the generator's."""
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def _policy(self) -> Any:
        return build_policy(
            self.policy_name,
            capacity_for(self.federation, self.cache_fraction),
            None,
            self.federation,
            self.granularity,
        )

    def _record(self, positions: Sequence[int], payloads: Sequence[bytes]) -> int:
        """File this round's responses; returns how many were not ``ok``."""
        failed = 0
        responses = [
            response
            for payload in payloads
            for response in parse_responses(payload)
        ]
        if len(responses) != len(positions):
            return len(positions)
        for position, response in zip(positions, responses):
            response["position"] = position
            if response.get("status") != "ok":
                failed += 1
        self.responses.extend(responses)
        return failed

    def _round_totals(self, responses: Sequence[Dict[str, Any]]) -> Totals:
        totals = dict.fromkeys(
            ("queries", "wan_bytes", "served", "shed"), 0
        )
        for response in responses:
            totals["queries"] += 1
            totals["wan_bytes"] += int(response.get("wan_bytes", 0))
            totals["served"] += response.get("outcome") == "served"
            totals["shed"] += response.get("status") == "shed"
        return totals

    def decided_positions(self) -> List[int]:
        """Arrival positions in the order the server decided them.

        Every response carries its decision index, so the exact
        sequence the shared cache saw is recoverable even when two
        connections race.
        """
        ordered = [-1] * len(self.responses)
        for response in self.responses:
            ordered[int(response["index"])] = response["position"]
        if -1 in ordered:
            raise ValueError("decision indices are not a permutation")
        return ordered

    def verify(self, rounds: Sequence[Round]) -> List[Check]:
        total = len(self.responses)
        checks = [
            check_equal(
                "every response ok",
                sum(r.get("status") == "ok" for r in self.responses),
                total,
            ),
            check_equal("/stats decided", self.stats.get("decided"), total),
            check_equal(
                "check_conservation(/metrics)",
                check_conservation(self.metrics_text),
                [],
            ),
        ]
        try:
            ordered = [self.arrivals[p] for p in self.decided_positions()]
        except (KeyError, ValueError, IndexError) as exc:
            checks.append(Check("decision indices", False, str(exc)))
            return checks
        simulator = Simulator(self.federation, self.granularity)
        reference = simulator.run_stream(
            ordered, self._policy(), record_series=False
        )
        checks.extend(result_checks("run_stream", [reference], total))
        service = self._round_totals(self.responses)
        checks.append(
            check_equal(
                "service WAN == run_stream WAN (decided order)",
                (service["wan_bytes"], service["served"]),
                (round(reference.total_bytes), reference.served_queries),
            )
        )
        return checks

    # -- the traced, in-process passes -----------------------------------

    def run_traced(self, log: SpanLog) -> Traced:
        reference = self.run_round()
        self.close()
        lines = [self.lines[p] for p in self.decided_positions()]
        traced_result, traced_wall, submit_result, submit_wall = asyncio.run(
            self._in_process(log, lines)
        )
        totals = totals_of([traced_result])
        service = self._round_totals(self.responses)
        metrics = layer_metrics(log)
        metrics.update(decision_metrics(totals))
        round_trips = reference.samples["round_trips_s"]
        metrics.update(
            {
                "service.http_s": (
                    sum(round_trips) - metrics["service.submit_s"]
                ),
                "service.http_count": float(len(round_trips)),
                "service.shed_count": float(self.stats.get("shed", 0)),
                "service.reject_count": float(self.stats.get("rejected", 0)),
                "service.shed_share": service["shed"] / service["queries"],
                "bench.latency_samples": float(len(reference.latencies_ms)),
            }
        )
        lateness = reference.samples.get("lateness_ms")
        if lateness:
            metrics["bench.generator_late_p50_ms"] = percentile(lateness, 0.5)
            metrics["bench.generator_late_p99_ms"] = percentile(lateness, 0.99)
        checks = list(reference.checks) + self.verify([reference])
        expected = (service["queries"], service["wan_bytes"], service["served"])
        for label, result in (
            ("traced", traced_result),
            ("submit", submit_result),
        ):
            checks.append(
                check_equal(
                    f"{label}==untraced",
                    (
                        result.queries,
                        round(result.total_bytes),
                        result.served_queries,
                    ),
                    expected,
                )
            )
        return Traced(
            metrics=metrics,
            checks=checks,
            queries=service["queries"],
            traced_wall_s=traced_wall,
            untraced_wall_s=submit_wall,
            other_spanned_s=submit_wall,
        )

    async def _in_process(
        self, log: SpanLog, lines: List[str]
    ) -> Tuple[Any, float, Any, float]:
        """Decode -> admit -> gate (emit inside) -> encode, spanned per
        request; then the same requests through ``MediatorService.submit``
        unspanned, which is the wall the tracing overhead is taken
        against."""
        clock = perf_counter
        context = [-1, NO_QUERY]
        instrumentation = Instrumentation(max_events=0)
        instrumentation.add_probe(MetricsProbe(MetricsRegistry()))
        pipeline = DecisionPipeline(
            self.federation,
            self.granularity,
            instrumentation=instrumentation,
        )
        # The gate's loop body belongs to src; span the calls it makes
        # into the objects handed to it.
        policy = self._policy()
        policy.process = log.wrap("core.decide", policy.process, context)
        for span_name, method in (
            ("core.compile", "query_from_prepared"),
            ("core.account", "account"),
            ("obs.emit", "emit_decision"),
        ):
            setattr(
                pipeline,
                method,
                log.wrap(span_name, getattr(pipeline, method), context),
            )
        gate = DecisionGate(pipeline, policy)
        admission: AdmissionController[PreparedQuery] = AdmissionController(
            ServiceConfig()
        )
        loop = log.name_id("service.loop_self")
        decode = log.name_id("service.decode")
        admit = log.name_id("service.admit")
        gate_id = log.name_id("service.gate")
        encode = log.name_id("service.encode")
        leaf = log.leaf
        start = clock()
        for position, line in enumerate(lines):
            root = log.open(loop, -1, position, clock())
            t = clock()
            request = decode_request(line, position)
            leaf(decode, t, clock(), root, position)
            t = clock()
            admission.admit(request.tenant, position)
            admission.enqueue(request.tenant, request.prepared)
            queued = admission.next_ready()
            leaf(admit, t, clock(), root, position)
            assert queued is not None
            span = log.open(gate_id, root, position, clock())
            context[0], context[1] = span, position
            index, decision, accounting = await gate.locked_resolve(queued[1])
            log.close(span, clock())
            t = clock()
            encode_response(
                QueryResponse(
                    request_id=request.request_id,
                    tenant=request.prepared.tenant,
                    status="ok",
                    outcome=(
                        "served" if decision.served_from_cache else "bypassed"
                    ),
                    index=index,
                    wan_bytes=int(accounting.wan_bytes),
                    weighted_cost=float(accounting.weighted_cost),
                )
            )
            leaf(encode, t, clock(), root, position)
            log.close(root, clock())
        traced_wall = clock() - start
        traced_result = gate.finalize()

        service = MediatorService(
            self.federation,
            self._policy(),
            granularity=self.granularity,
        )
        requests = [
            decode_request(line, position)
            for position, line in enumerate(lines)
        ]
        submit = log.name_id("service.submit")
        start = clock()
        for position, request in enumerate(requests):
            t = clock()
            await service.submit(request)
            leaf(submit, t, clock(), -1, position)
        submit_wall = clock() - start
        submit_result = service.result()
        await service.close()
        return traced_result, traced_wall, submit_result, submit_wall


class ServeBatched(ServeWorkload):
    name = "serve_batched"
    nominal_round_s = 1.4
    batch = 32
    #: Times the arrivals are replayed per round, so that a round has
    #: enough POSTs (471) for its 99th percentile to mean something.
    passes = 3

    @property
    def latency_unit(self) -> str:
        return f"POST of {self.batch} requests, closed loop, 1 connection"

    def setup(self) -> None:
        super().setup()
        self.bodies: List[Tuple[List[int], bytes]] = []
        for first in range(0, len(self.lines), self.batch):
            positions = list(
                range(first, min(first + self.batch, len(self.lines)))
            )
            body = "".join(self.lines[p] + "\n" for p in positions)
            self.bodies.append((positions, body.encode("utf-8")))

    def run_round(self) -> Round:
        assert self.server is not None
        client = self.server.connect()
        payloads: List[bytes] = []
        trips: List[float] = []
        try:
            start = perf_counter()
            for _ in range(self.passes):
                for _positions, body in self.bodies:
                    sent = perf_counter()
                    payloads.append(client.request("POST", "/query", body))
                    trips.append(perf_counter() - sent)
            wall = perf_counter() - start
        finally:
            client.close()
        positions = [
            p for batch, _ in self.bodies for p in batch
        ] * self.passes
        before = len(self.responses)
        failed = self._record(positions, payloads)
        return Round(
            queries=len(positions),
            wall_s=wall,
            totals=self._round_totals(self.responses[before:]),
            latencies_ms=[trip * 1000.0 for trip in trips],
            failed=failed,
            samples={"round_trips_s": trips},
        )


class ServeOpen(ServeWorkload):
    name = "serve_open"
    rate_per_s = 800.0
    connections = 2
    units_tile_round = False
    shape = TraceShape(cycles=1, block_len=50)

    @property
    def nominal_round_s(self) -> float:  # type: ignore[override]
        return self.shape.num_queries / self.rate_per_s

    @property
    def latency_unit(self) -> str:
        return (
            f"single-request POST from its due time, open loop at "
            f"{self.rate_per_s:.0f}/s, {self.connections} connections"
        )

    def setup(self) -> None:
        super().setup()
        self.bodies = [(line + "\n").encode("utf-8") for line in self.lines]

    def run_round(self) -> Round:
        """One generator thread, busy-polling: a request leaves the
        moment it is due and a connection is free, and a response is
        seen the moment it is readable, so the generator's own sleep
        and wake-up latency is not billed to the service.  It yields
        the processor on every spin so that nothing has to preempt the
        server to run."""
        assert self.server is not None
        total = len(self.bodies)
        # The same schedule every round, so that request k meets the
        # same queue each time and its tries are comparable; stretched
        # so that every seed offers exactly ``rate_per_s`` on average.
        gaps = random.Random(derive_seed(self.seed, self.name, "gaps"))
        offsets: List[float] = []
        elapsed = 0.0
        for _ in range(total):
            elapsed += gaps.expovariate(self.rate_per_s)
            offsets.append(elapsed)
        stretch = total / self.rate_per_s / elapsed
        offsets = [offset * stretch for offset in offsets]
        payloads: List[bytes] = [b""] * total
        latency_ms = [0.0] * total
        late_ms = [0.0] * total
        done_at = [0.0] * total
        clients = [self.server.connect() for _ in range(self.connections)]
        in_flight: List[int] = [-1] * len(clients)
        bodies = self.bodies
        next_position = 0
        completed = 0
        start = perf_counter() + 0.05
        try:
            while completed < total:
                os.sched_yield()
                for slot, client in enumerate(clients):
                    position = in_flight[slot]
                    if position >= 0:
                        payload = client.poll()
                        if payload is None:
                            continue
                        done = perf_counter()
                        payloads[position] = payload
                        done_at[position] = done
                        latency_ms[position] = (
                            done - start - offsets[position]
                        ) * 1000.0
                        in_flight[slot] = -1
                        completed += 1
                    if next_position < total:
                        due = start + offsets[next_position]
                        sent = perf_counter()
                        if sent >= due:
                            client.send(
                                "POST", "/query", bodies[next_position]
                            )
                            late_ms[next_position] = (sent - due) * 1000.0
                            in_flight[slot] = next_position
                            next_position += 1
        finally:
            for client in clients:
                client.close()
        wall = max(done_at) - start
        before = len(self.responses)
        failed = self._record(list(range(total)), payloads)
        late_p50 = percentile(late_ms, 0.5)
        p50 = percentile(latency_ms, 0.5)
        lateness_check = Check(
            "generator lateness p50 <= half of latency p50",
            late_p50 <= 0.5 * p50,
            f"late {late_p50:.3f} ms vs latency {p50:.3f} ms",
        )
        return Round(
            queries=total,
            wall_s=wall,
            totals=self._round_totals(self.responses[before:]),
            latencies_ms=latency_ms,
            failed=failed,
            checks=[lateness_check],
            detail={"generator_late_p50_ms": late_p50},
            samples={
                "round_trips_s": [
                    (latency - late) / 1000.0
                    for latency, late in zip(latency_ms, late_ms)
                ],
                "lateness_ms": late_ms,
            },
        )
