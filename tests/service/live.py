"""A live :class:`MediatorService` on an ephemeral loopback port.

The service runs in its own event-loop thread, so a test talks to it
over real HTTP with the loadgen's stdlib client — the same pairing the
CI service-smoke job exercises from two processes.
"""

import asyncio
import queue
import threading

from repro.core.policies.rate_profile import RateProfilePolicy
from repro.errors import ConfigurationError
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.server import MediatorService
from tests.service.conftest import make_federation


class ServerThread:
    """A live service on an ephemeral port, in its own loop thread."""

    def __init__(self, capacity, slo_engine=None, config=None):
        self._capacity = capacity
        self._slo_engine = slo_engine
        self._config = config or ServiceConfig()
        self._ports: "queue.Queue[int]" = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.url = ""

    def _run(self):
        async def main():
            service = MediatorService(
                make_federation(),
                RateProfilePolicy(capacity_bytes=self._capacity),
                config=self._config,
                slo_engine=self._slo_engine,
            )
            await service.start()
            self._ports.put(service.port)
            await service.serve_until_shutdown()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        port = self._ports.get(timeout=10)
        self.url = f"http://127.0.0.1:{port}"
        loadgen.wait_ready(self.url)
        return self

    def __exit__(self, *exc_info):
        try:
            loadgen.http_post(self.url, "/shutdown", "")
        except (ConfigurationError, OSError):
            pass
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
