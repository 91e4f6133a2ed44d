"""Content types of the live HTTP surface.

``repro-serve`` (:mod:`repro.service.server`) is the one live
``/metrics``, ``/healthz``, ``/slo`` and ``/stats``; every response it
sends declares one of these explicit-charset types.
"""

#: Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Plain-text content type with explicit charset (``/healthz``).
TEXT_CONTENT_TYPE = "text/plain; charset=utf-8"

#: JSON content type with explicit charset (``/slo``, ``/stats``).
JSON_CONTENT_TYPE = "application/json; charset=utf-8"
