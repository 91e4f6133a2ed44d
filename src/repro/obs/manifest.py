"""Run manifests: the attribution header of every persisted trace.

A :class:`RunManifest` records everything needed to *re-run and
re-attribute* a telemetry trace: the workload identity, the policy and
its parameters, the cache configuration, the seed, the package version,
and a caller-supplied timestamp.  It is the first line of every trace
file written by :class:`~repro.obs.trace_io.TraceWriter`, so any JSONL
trace found on disk is self-describing.

Timestamps are **caller-supplied** strings: the replay pipeline itself
is clock-free (repro-lint RPR002), so wall-clock reads happen only at
the CLI edge, via :func:`wall_clock_timestamp` below.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Dict, Mapping, Optional

from repro.errors import ConfigurationError

#: Version tag carried in every serialized manifest.
MANIFEST_SCHEMA = 1


def package_version() -> str:
    """The installed ``repro`` version, for attribution stamping."""
    try:
        from repro import __version__
    except Exception:  # pragma: no cover - import cycle fallback
        return "unknown"
    return __version__


def wall_clock_timestamp() -> str:
    """ISO-8601 UTC timestamp for manifest stamping at the CLI edge.

    The only sanctioned wall-clock read feeding run telemetry; library
    code takes ``created_at`` as an argument instead of calling this.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class RunManifest:
    """Identity and configuration of one recorded run.

    Attributes:
        workload: Trace/workload identifier (e.g. the prepared trace
            name).
        policy: Name of the cache policy that made the decisions.
        granularity: ``"table"`` or ``"column"``.
        capacity_bytes: Cache size the policy ran with.
        seed: Workload generation seed, when known (None otherwise).
        policy_params: Extra policy constructor parameters.
        policy_sees_weights: The BYHR/BYU cost-view flag the run used.
        source: ``"simulator"`` or ``"proxy"``.
        package_version: ``repro.__version__`` at record time.
        created_at: Caller-supplied ISO-8601 timestamp ("" when the
            caller declined to stamp, keeping output byte-deterministic).
        extra: Free-form attribution (host, experiment label, ...).
    """

    workload: str
    policy: str
    granularity: str
    capacity_bytes: int
    seed: Optional[int] = None
    policy_params: Dict[str, object] = field(default_factory=dict)
    policy_sees_weights: bool = True
    source: str = "simulator"
    package_version: str = field(default_factory=package_version)
    created_at: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """JSON-safe dict that :meth:`from_json` restores exactly."""
        payload: Dict[str, object] = {"schema": MANIFEST_SCHEMA}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_json` output."""
        schema = data.get("schema", MANIFEST_SCHEMA)
        if not isinstance(schema, int) or schema > MANIFEST_SCHEMA:
            raise ConfigurationError(
                f"manifest schema {schema!r} is newer than this build "
                f"understands (<= {MANIFEST_SCHEMA})"
            )
        try:
            workload = str(data["workload"])
            policy = str(data["policy"])
            granularity = str(data["granularity"])
            capacity_bytes = int(data["capacity_bytes"])  # type: ignore[call-overload]
        except KeyError as exc:
            raise ConfigurationError(
                f"manifest missing required field: {exc}"
            ) from exc
        seed = data.get("seed")
        policy_params = data.get("policy_params", {})
        extra = data.get("extra", {})
        params = (
            dict(policy_params) if isinstance(policy_params, Mapping) else {}
        )
        return cls(
            workload=workload,
            policy=policy,
            granularity=granularity,
            capacity_bytes=capacity_bytes,
            seed=None if seed is None else int(seed),  # type: ignore[call-overload]
            policy_params=params,
            policy_sees_weights=bool(
                data.get("policy_sees_weights", True)
            ),
            source=str(data.get("source", "simulator")),
            package_version=str(data.get("package_version", "unknown")),
            created_at=str(data.get("created_at", "")),
            extra=dict(extra) if isinstance(extra, Mapping) else {},
        )

    def describe(self) -> Dict[str, object]:
        """Ordered field/value pairs for report rendering."""
        described: Dict[str, object] = {
            "workload": self.workload,
            "policy": self.policy,
            "granularity": self.granularity,
            "capacity_bytes": self.capacity_bytes,
            "seed": "-" if self.seed is None else self.seed,
            "policy_sees_weights": self.policy_sees_weights,
            "source": self.source,
            "package_version": self.package_version,
            "created_at": self.created_at or "-",
        }
        for key in sorted(self.policy_params):
            described[f"policy_params.{key}"] = self.policy_params[key]
        for key in sorted(self.extra):
            described[f"extra.{key}"] = self.extra[key]
        return described
