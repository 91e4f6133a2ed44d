"""The asyncio mediator server: many tenants, one shared cache.

Stdlib-only (``asyncio`` streams, hand-rolled HTTP/1.1), one
event-loop thread — the one live HTTP surface.
Routes:

* ``POST /query`` — a body of JSON request lines (see
  :mod:`repro.service.protocol`); the response body carries one JSON
  line per request, in request order.
* ``GET /healthz`` — liveness (``ok``).
* ``GET /metrics`` — Prometheus text exposition of the service's
  registry (per-tenant WAN attribution included), its counters read
  from the instrumentation's one store as the page renders.
* ``GET /slo`` — current SLO evaluation as JSON (404 without an
  engine).
* ``GET /stats`` — admission/shedding counters as JSON.
* ``POST /shutdown`` — graceful stop (the smoke jobs use it to flush
  trace/span sinks deterministically).

Request flow: every arrival advances the logical admission clock and
runs the shedding ladder (:class:`~repro.service.scheduler.AdmissionController`);
a POST admits all its lines in one synchronous pass.  Admitted queries
wait in their tenant's bounded queue; one drain loop pops them in runs
of up to ``config.max_inflight``, round-robin across tenants, decides
each run under one hold of the per-federation decision lock
(:class:`~repro.service.session.DecisionGate` — the sanctioned seam),
settles the submitters' futures, and ships the run's WAN transfer
*outside* the lock with one cooperative yield.
"""

from __future__ import annotations

import asyncio
import json
from itertools import islice
from typing import TYPE_CHECKING, Awaitable, Dict, List, Optional, Tuple, Union

from repro.core.instrumentation import (
    DecisionEvent,
    Instrumentation,
    Probe,
)
from repro.core.pipeline import DecisionPipeline
from repro.obs.httpd import (
    CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
)
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    ProtocolError,
    QueryRequest,
    QueryResponse,
    decode_request,
    encode_response,
)
from repro.service.scheduler import (
    AdmissionController,
    AdmissionStatus,
)
from repro.service.session import DecisionGate, Resolved

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policies.base import CachePolicy
    from repro.federation.federation import Federation
    from repro.obs.slo import SLOEngine
    from repro.obs.spans import SpanTracer
    from repro.sim.results import SimulationResult

#: Largest request body accepted.  The biggest legitimate POST, a
#: 64-line loadgen batch, is tens of kB; a larger declared
#: ``Content-Length`` is refused before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most header lines accepted in one request.
MAX_HEADERS = 100

#: Longest request or header line accepted (the stream reader's limit);
#: a longer line is answered 414 or 431 instead of read.
MAX_LINE_BYTES = 64 * 1024

#: One queued unit: the admitted request and the future its submitter
#: awaits for the response.
_QueueItem = Tuple[QueryRequest, "asyncio.Future[QueryResponse]"]


class _SLOForwarder(Probe):
    """Forward decision events into a live SLO engine."""

    def __init__(self, engine: "SLOEngine") -> None:
        self._engine = engine

    def on_decision(self, event: DecisionEvent) -> None:
        self._engine.observe_event(event)


class MediatorService:
    """One shared-cache serving endpoint over one federation.

    Args:
        federation: Object sizes, link weights, servers.
        policy: The shared cache policy every tenant's queries drive.
        config: Admission-control and bind settings.
        granularity: ``"table"`` or ``"column"`` caching.
        policy_sees_weights: The BYHR/BYU cost-view flag.
        instrumentation: Observability sink; one is created
            (``max_events=0``) when omitted so ``/metrics`` always
            works.
        tracer: Optional span tracer (span emission happens under the
            decision lock — the tracer itself stays single-threaded).
        slo_engine: Optional live SLO engine backing ``/slo``.
        record_series: Record the cumulative WAN series in the result.
    """

    def __init__(
        self,
        federation: "Federation",
        policy: "CachePolicy",
        config: Optional[ServiceConfig] = None,
        granularity: str = "table",
        policy_sees_weights: bool = True,
        instrumentation: Optional[Instrumentation] = None,
        tracer: Optional["SpanTracer"] = None,
        slo_engine: Optional["SLOEngine"] = None,
        record_series: bool = True,
    ) -> None:
        self.config = config or ServiceConfig()
        if instrumentation is None:
            instrumentation = Instrumentation(max_events=0)
        self.instrumentation = instrumentation
        self.registry = MetricsRegistry()
        instrumentation.add_probe(
            MetricsProbe(
                self.registry, occupancy=lambda: policy.store.used_bytes
            )
        )
        self.slo_engine = slo_engine
        if slo_engine is not None:
            instrumentation.add_probe(_SLOForwarder(slo_engine))
        pipeline = DecisionPipeline(
            federation,
            granularity,
            policy_sees_weights,
            instrumentation=instrumentation,
            tracer=tracer,
        )
        self.pipeline = pipeline
        self.gate = DecisionGate(
            pipeline, policy, record_series=record_series
        )
        self.admission: AdmissionController[_QueueItem] = (
            AdmissionController(self.config)
        )
        self._arrivals = 0
        self._inflight = 0
        self._ready = asyncio.Event()
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- request processing ----------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Run one request through admission and the decision path.

        The in-process entry point — the loadgen's in-process mode and
        the tests land here; the HTTP route shares its admission body.
        Arrival order defines the logical admission clock.
        """
        return await self._admit(request)

    def _admit(self, request: QueryRequest) -> Awaitable[QueryResponse]:
        """Admit one arrival now; the returned awaitable answers it.

        Synchronous, so a POST admits all its lines before any is
        decided; shed and refused ones are decided when awaited.
        """
        tick = self._arrivals
        self._arrivals += 1
        status = self.admission.admit(request.tenant, tick)
        if status is not AdmissionStatus.ADMIT:
            return self._refuse(request, status)
        future: "asyncio.Future[QueryResponse]" = (
            asyncio.get_running_loop().create_future()
        )
        self.admission.enqueue(request.tenant, (request, future))
        self._ensure_drain()
        self._ready.set()
        return future

    async def _refuse(
        self, request: QueryRequest, status: AdmissionStatus
    ) -> QueryResponse:
        """Decide a shed (bypass-only) or rejected (refused) arrival."""
        if status is AdmissionStatus.REJECT:
            resolved = await self.gate.locked_resolve(
                request.prepared, outcome="unavailable"
            )
            return self._response(request, resolved, "rejected", "unavailable")
        resolved = await self.gate.locked_resolve(
            request.prepared, outcome="shed"
        )
        # Bypass shipping overlaps outside the decision lock.
        await self._ship()
        return self._response(request, resolved, "shed", "shed")

    def _response(
        self,
        request: QueryRequest,
        resolved: Resolved,
        status: str = "ok",
        outcome: str = "",
    ) -> QueryResponse:
        """The wire answer; full service reports served or bypassed."""
        index, decision, accounting = resolved
        if not outcome:
            outcome = "served" if decision.served_from_cache else "bypassed"
        return QueryResponse(
            request_id=request.request_id,
            tenant=request.prepared.tenant,
            status=status,
            outcome=outcome,
            index=index,
            wan_bytes=int(accounting.wan_bytes),
            weighted_cost=float(accounting.weighted_cost),
        )

    async def _ship(self) -> None:
        """The (simulated) WAN transfer window of a run or a shed query.

        One cooperative yield, after the run's submitters are settled:
        they answer, and other connections admit, while its bytes are
        "on the wire" — without coupling replay speed to wall time.
        """
        await asyncio.sleep(0)

    def _ensure_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def _drain(self) -> None:
        """Decide queued work in runs; return once shutdown leaves none.

        A run is up to ``max_inflight`` queries popped round-robin and
        decided under one decision-lock hold; its futures are then
        settled and it ships.
        """
        limit = self.config.max_inflight
        while True:
            self._ready.clear()
            queued = iter(self.admission.next_ready, None)
            while run := [item for _, item in islice(queued, limit)]:
                self._inflight = len(run)
                resolved = await self.gate.locked_resolve_run(
                    [request.prepared for request, _ in run]
                )
                for (request, future), outcome in zip(run, resolved):
                    if future.done():  # the submitter went away
                        continue
                    if isinstance(outcome, Exception):
                        future.set_exception(outcome)
                    else:
                        future.set_result(self._response(request, outcome))
                await self._ship()
                self._inflight = 0
            if self._shutdown.is_set():
                return
            await self._ready.wait()

    def result(self) -> "SimulationResult":
        """The accumulated run accounting (run_stream shape)."""
        return self.gate.finalize()

    def stats(self) -> Dict[str, object]:
        """Service-level counters for ``/stats``."""
        return {
            "decided": self.gate.decided,
            "shed": self.gate.shed_queries,
            "rejected": self.gate.rejected_queries,
            "inflight": self._inflight,
            "tenants": self.admission.stats(),
        }

    # -- HTTP surface ----------------------------------------------------

    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> "MediatorService":
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._on_connection,
                host if host is not None else self.config.host,
                port if port is not None else self.config.port,
                limit=MAX_LINE_BYTES,
            )
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return 0
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`close`)."""
        await self.start()
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting connections; decide the admitted backlog (the
        drain loop runs it through the run seam, then exits)."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        task, self._drain_task = self._drain_task, None
        if task is not None:
            self._ready.set()
            await task

    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except ValueError:  # longer than MAX_LINE_BYTES
                    reason = f"request line over {MAX_LINE_BYTES} bytes\n"
                    await _refuse_unread(writer, "414 URI Too Long", reason)
                    break
                if not request_line:
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").split(" ", 2)
                    )
                except ValueError:
                    break
                headers: Dict[str, str] = {}
                # A request the server will not read cannot be framed:
                # answer, then hang up.
                refusal: Optional[Tuple[str, str]] = None
                for _ in range(MAX_HEADERS + 1):
                    try:
                        line = await reader.readline()
                    except ValueError:  # longer than MAX_LINE_BYTES
                        refusal = (
                            "431 Request Header Fields Too Large",
                            f"header line over {MAX_LINE_BYTES} bytes\n",
                        )
                        break
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = (
                        line.decode("latin-1").partition(":")
                    )
                    headers[key.strip().lower()] = value.strip()
                else:
                    refusal = (
                        "431 Request Header Fields Too Large",
                        f"more than {MAX_HEADERS} header lines\n",
                    )
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if refusal is None and length < 0:
                    refusal = (
                        "400 Bad Request",
                        "Content-Length must be a non-negative integer\n",
                    )
                elif refusal is None and length > MAX_BODY_BYTES:
                    refusal = (
                        "413 Content Too Large",
                        f"body over {MAX_BODY_BYTES} bytes\n",
                    )
                if refusal is not None:
                    await _refuse_unread(writer, *refusal)
                    break
                body = await reader.readexactly(length) if length else b""
                status, ctype, payload = await self._route(
                    method.upper(), target.split("?", 1)[0], body
                )
                tokens = headers.get("connection", "").lower().split(",")
                closing = "close" in (token.strip() for token in tokens)
                head = (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if closing else 'keep-alive'}"
                    "\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + payload)
                await writer.drain()
                if closing or self._shutdown.is_set():
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            pass
        finally:
            writer.close()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[str, str, bytes]:
        if method == "GET" and path == "/healthz":
            return "200 OK", TEXT_CONTENT_TYPE, b"ok\n"
        if method == "GET" and path == "/metrics":
            text = self.registry.render_prometheus()
            return "200 OK", CONTENT_TYPE, text.encode("utf-8")
        if method == "GET" and path == "/slo":
            if self.slo_engine is None:
                return (
                    "404 Not Found",
                    TEXT_CONTENT_TYPE,
                    b"no SLO engine configured\n",
                )
            report = self.slo_engine.evaluate()
            payload = (
                json.dumps(report.to_json(), sort_keys=True) + "\n"
            )
            return "200 OK", JSON_CONTENT_TYPE, payload.encode("utf-8")
        if method == "GET" and path == "/stats":
            payload = json.dumps(self.stats(), sort_keys=True) + "\n"
            return "200 OK", JSON_CONTENT_TYPE, payload.encode("utf-8")
        if method == "POST" and path == "/shutdown":
            self._shutdown.set()
            return "200 OK", TEXT_CONTENT_TYPE, b"shutting down\n"
        if method == "POST" and path == "/query":
            return await self._route_query(body)
        return (
            "404 Not Found",
            TEXT_CONTENT_TYPE,
            b"unknown path (try /healthz)\n",
        )

    async def _route_query(
        self, body: bytes
    ) -> Tuple[str, str, bytes]:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            return (
                "400 Bad Request",
                TEXT_CONTENT_TYPE,
                f"request body is not UTF-8: {exc.reason}\n".encode("utf-8"),
            )
        lines = [line for line in text.splitlines() if line.strip()]
        answers: List[Union[str, Awaitable[QueryResponse]]] = []
        for line_no, line in enumerate(lines):
            try:
                request = decode_request(line, line_no)
            except ProtocolError as exc:
                answers.append(_error_line(exc, line_no))
                continue
            answers.append(self._admit(request))
        payload = []
        for line_no, answer in enumerate(answers):
            if not isinstance(answer, str):
                try:
                    answer = encode_response(await answer)
                except Exception as exc:  # fails this line, not the POST
                    answer = _error_line(exc, line_no)
            payload.append(answer + "\n")
        return (
            "200 OK",
            "application/jsonlines; charset=utf-8",
            "".join(payload).encode("utf-8"),
        )


async def _refuse_unread(
    writer: asyncio.StreamWriter, status: str, reason: str
) -> None:
    """Answer a request the server will not read, asking to close."""
    head = (
        f"HTTP/1.1 {status}\r\nContent-Type: {TEXT_CONTENT_TYPE}\r\n"
        f"Content-Length: {len(reason)}\r\nConnection: close\r\n\r\n"
    )
    writer.write((head + reason).encode("latin-1"))
    await writer.drain()


def _error_line(exc: Exception, line_no: int) -> str:
    """The in-band answer to a request line that got no response."""
    return json.dumps({"error": str(exc), "id": line_no}, sort_keys=True)


__all__ = ["MediatorService"]
