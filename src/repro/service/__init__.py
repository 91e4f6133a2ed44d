"""``repro.service``: the async multi-tenant mediator service.

The paper's bypass-yield proxy finally serving *live* clients: an
asyncio mediator server (stdlib-only, the one live HTTP surface)
accepts concurrent query streams from many named tenants over a
JSON-lines-over-HTTP protocol and drives the shared
:class:`~repro.core.pipeline.DecisionPipeline` /
:class:`~repro.core.policies.online.BypassObjectCache` pair under a
per-federation decision lock, with admission control in front
(bounded per-tenant queues, token-bucket rate limits, and
shed-to-bypass before reject).

Layering:

* :mod:`repro.service.config` — hardened knob parsing + ``ServiceConfig``;
* :mod:`repro.service.protocol` — the JSON-lines request/response wire format;
* :mod:`repro.service.session` — the decision lock and its sanctioned
  holder seam (:class:`DecisionGate`);
* :mod:`repro.service.scheduler` — token buckets, bounded tenant
  queues, round-robin draining;
* :mod:`repro.service.server` — the asyncio HTTP server
  (``/query``, ``/healthz``, ``/metrics``, ``/slo``);
* :mod:`repro.service.loadgen` — the trace replayer as load generator;
* :mod:`repro.service.cli` — the ``repro-serve`` entry point.

Determinism boundary: a single-tenant serial run through the service
is byte-identical (decisions and WAN totals) to
:meth:`repro.sim.simulator.Simulator.run_stream`; concurrent
interleaves conserve aggregate accounting (per-tenant counter sums
equal the untagged totals) but individual decisions depend on arrival
order — see DESIGN.md §15.
"""

from repro.service.config import (
    ServiceConfig,
    parse_max_inflight,
    parse_port,
    parse_tenant_rate,
)
from repro.service.scheduler import (
    AdmissionController,
    AdmissionStatus,
    TokenBucket,
)
from repro.service.server import MediatorService
from repro.service.session import DecisionGate, decision_lock_for

__all__ = [
    "AdmissionController",
    "AdmissionStatus",
    "DecisionGate",
    "MediatorService",
    "ServiceConfig",
    "TokenBucket",
    "decision_lock_for",
    "parse_max_inflight",
    "parse_port",
    "parse_tenant_rate",
]
