"""Declarative SLOs with multi-window burn-rate evaluation.

An SLO spec declares objectives over the quantities this system already
records — decision outcomes, per-query WAN bytes, per-stage span
latencies — and the engine folds a stream of
:class:`~repro.core.instrumentation.DecisionEvent` /
:class:`~repro.obs.spans.Span` observations into compliance and
burn-rate state.  Three objective kinds:

``availability``
    Fraction of queries not resolved as ``unavailable``.  The paper's
    caching policies should *raise* availability (a cached object keeps
    serving through a backend outage), so the checked-in CI spec pins
    that claim.

``wan_per_query_bytes``
    Fraction of queries whose total WAN bytes (loads + bypass + retry
    waste) stay under a per-query budget — the "good network citizen"
    contract expressed as an SLO.

``stage_latency_p99``
    Fraction of spans of one stage whose *logical* duration stays under
    a tick threshold.  Ticks, not wall seconds: evaluation must be
    deterministic and replayable.

Burn rate follows the multi-window construction from Google's SRE
workbook: with error budget ``1 - target``, the burn rate of a window
is ``observed error rate / (1 - target)`` — burn 1.0 spends exactly the
budget over the SLO period; burn 14 exhausts a 30-day budget in ~2
days.  An objective *alerts* when both a long and a short window burn
above threshold (the short window proves the problem is still
happening, the long one that it is material).  An objective is
*violated* when overall compliance over everything observed falls below
target.  ``repro-report --slo`` exits 1 on either.

Time is observation count throughout — windows are "the last N
queries", never "the last N seconds" — same determinism rule as
:class:`~repro.obs.metrics.WindowedGauge`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Mapping, Tuple, Union

from repro.core.instrumentation import DecisionEvent
from repro.errors import ConfigurationError
from repro.obs.spans import Span

#: Objective kinds understood by this engine.
KIND_AVAILABILITY = "availability"
KIND_WAN_PER_QUERY = "wan_per_query_bytes"
KIND_STAGE_LATENCY = "stage_latency_p99"

_KINDS = (KIND_AVAILABILITY, KIND_WAN_PER_QUERY, KIND_STAGE_LATENCY)


@dataclass(frozen=True)
class Objective:
    """One declarative objective inside an SLO spec.

    Attributes:
        name: Display name ("availability", "wan-budget", ...).
        kind: One of the three objective kinds above.
        target: Required good fraction in (0, 1) — 0.99 means "99% of
            observations must be good" (for ``stage_latency_p99`` this
            *is* the p99 claim).
        budget_bytes: Per-query WAN budget (``wan_per_query_bytes``).
        stage: Span stage name (``stage_latency_p99``).
        threshold_ticks: Logical-duration bound (``stage_latency_p99``).
        long_window: Observations in the long burn window.
        short_window: Observations in the short burn window.
        burn_threshold: Both windows must burn at or above this rate to
            alert; 1.0 = budget-neutral burn.
    """

    name: str
    kind: str
    target: float
    budget_bytes: int = 0
    stage: str = ""
    threshold_ticks: int = 0
    long_window: int = 1000
    short_window: int = 100
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.kind == KIND_WAN_PER_QUERY and self.budget_bytes <= 0:
            raise ConfigurationError(
                f"objective {self.name!r}: wan_per_query_bytes needs a "
                f"positive budget_bytes"
            )
        if self.kind == KIND_STAGE_LATENCY:
            if not self.stage:
                raise ConfigurationError(
                    f"objective {self.name!r}: stage_latency_p99 needs "
                    f"a stage name"
                )
            if self.threshold_ticks <= 0:
                raise ConfigurationError(
                    f"objective {self.name!r}: stage_latency_p99 needs "
                    f"a positive threshold_ticks"
                )
        if self.short_window < 1 or self.long_window < self.short_window:
            raise ConfigurationError(
                f"objective {self.name!r}: windows must satisfy "
                f"1 <= short_window <= long_window"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Objective":
        kind = str(data.get("kind", ""))
        return cls(
            name=str(data.get("name", kind or "objective")),
            kind=kind,
            target=float(data.get("target", 0.0)),  # type: ignore[arg-type]
            budget_bytes=int(data.get("budget_bytes", 0)),  # type: ignore[call-overload]
            stage=str(data.get("stage", "")),
            threshold_ticks=int(data.get("threshold_ticks", 0)),  # type: ignore[call-overload]
            long_window=int(data.get("long_window", 1000)),  # type: ignore[call-overload]
            short_window=int(data.get("short_window", 100)),  # type: ignore[call-overload]
            burn_threshold=float(data.get("burn_threshold", 1.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SLOSpec:
    """A named bundle of objectives, loadable from JSON."""

    name: str
    objectives: Tuple[Objective, ...]

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "SLOSpec":
        raw = data.get("objectives")
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                "SLO spec needs a non-empty 'objectives' list"
            )
        objectives = []
        for entry in raw:
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    "each SLO objective must be a JSON object"
                )
            objectives.append(Objective.from_json(entry))
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"SLO objective names must be unique, got {names}"
            )
        return cls(
            name=str(data.get("name", "slo")),
            objectives=tuple(objectives),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SLOSpec":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no such SLO spec: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}: invalid JSON in SLO spec: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: SLO spec must be an object")
        return cls.from_json(data)


class _ObjectiveState:
    """Streaming compliance state for one objective."""

    __slots__ = ("total", "bad", "long_window", "short_window")

    def __init__(self, objective: Objective) -> None:
        self.total = 0
        self.bad = 0
        self.long_window: Deque[int] = deque(maxlen=objective.long_window)
        self.short_window: Deque[int] = deque(
            maxlen=objective.short_window
        )

    def observe(self, bad: bool) -> None:
        flag = 1 if bad else 0
        self.total += 1
        self.bad += flag
        self.long_window.append(flag)
        self.short_window.append(flag)


@dataclass(frozen=True)
class ObjectiveResult:
    """Evaluation of one objective at a point in time."""

    objective: Objective
    total: int
    bad: int
    compliance: float
    burn_long: float
    burn_short: float
    alerting: bool
    violated: bool

    @property
    def failing(self) -> bool:
        return self.alerting or self.violated

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "target": self.objective.target,
            "total": self.total,
            "bad": self.bad,
            "compliance": self.compliance,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "burn_threshold": self.objective.burn_threshold,
            "alerting": self.alerting,
            "violated": self.violated,
            "failing": self.failing,
        }


@dataclass(frozen=True)
class SLOReport:
    """Evaluation of a whole spec."""

    spec: SLOSpec
    results: Tuple[ObjectiveResult, ...]

    @property
    def ok(self) -> bool:
        return not any(result.failing for result in self.results)

    def to_json(self) -> Dict[str, object]:
        return {
            "slo": self.spec.name,
            "ok": self.ok,
            "objectives": [result.to_json() for result in self.results],
        }


class SLOEngine:
    """Fold observations into per-objective compliance + burn state.

    Feed it decision events (:meth:`observe_event`) and spans
    (:meth:`observe_span`); :meth:`evaluate` is cheap and callable at
    any time — the ``/slo`` endpoint calls it per scrape.
    """

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self._states = {
            objective.name: _ObjectiveState(objective)
            for objective in spec.objectives
        }

    # -- observation ----------------------------------------------------

    def observe_event(self, event: DecisionEvent) -> None:
        for objective in self.spec.objectives:
            if objective.kind == KIND_AVAILABILITY:
                self._states[objective.name].observe(
                    event.outcome == "unavailable"
                )
            elif objective.kind == KIND_WAN_PER_QUERY:
                self._states[objective.name].observe(
                    event.wan_bytes > objective.budget_bytes
                )

    def observe_span(self, span: Span) -> None:
        for objective in self.spec.objectives:
            if (
                objective.kind == KIND_STAGE_LATENCY
                and span.name == objective.stage
            ):
                self._states[objective.name].observe(
                    span.duration > objective.threshold_ticks
                )

    def observe_events(self, events: Iterable[DecisionEvent]) -> None:
        for event in events:
            self.observe_event(event)

    def observe_spans(self, spans: Iterable[Span]) -> None:
        for span in spans:
            self.observe_span(span)

    # -- evaluation -----------------------------------------------------

    @staticmethod
    def _burn(window: Deque[int], error_budget: float) -> float:
        if not window:
            return 0.0
        error_rate = sum(window) / len(window)
        return error_rate / error_budget

    def evaluate(self) -> SLOReport:
        results: List[ObjectiveResult] = []
        for objective in self.spec.objectives:
            state = self._states[objective.name]
            compliance = (
                1.0 - state.bad / state.total if state.total else 1.0
            )
            burn_long = self._burn(
                state.long_window, objective.error_budget
            )
            burn_short = self._burn(
                state.short_window, objective.error_budget
            )
            alerting = (
                state.total > 0
                and burn_long >= objective.burn_threshold
                and burn_short >= objective.burn_threshold
            )
            violated = state.total > 0 and compliance < objective.target
            results.append(
                ObjectiveResult(
                    objective=objective,
                    total=state.total,
                    bad=state.bad,
                    compliance=compliance,
                    burn_long=burn_long,
                    burn_short=burn_short,
                    alerting=alerting,
                    violated=violated,
                )
            )
        return SLOReport(spec=self.spec, results=tuple(results))


def evaluate_sources(
    spec: SLOSpec,
    events: Iterable[DecisionEvent] = (),
    spans: Iterable[Span] = (),
) -> SLOReport:
    """One-shot evaluation over already-collected observations."""
    engine = SLOEngine(spec)
    engine.observe_events(events)
    engine.observe_spans(spans)
    return engine.evaluate()


def render_slo_report(report: SLOReport) -> str:
    """Plain-text rendering for ``repro-report --slo``."""
    lines = [f"SLO report: {report.spec.name}"]
    lines.append(
        f"{'objective':<24} {'kind':<22} {'target':>8} {'comply':>8} "
        f"{'burn(L)':>8} {'burn(S)':>8} {'n':>8}  verdict"
    )
    for result in report.results:
        objective = result.objective
        if result.violated:
            verdict = "VIOLATED"
        elif result.alerting:
            verdict = "BURNING"
        else:
            verdict = "ok"
        lines.append(
            f"{objective.name:<24} {objective.kind:<22} "
            f"{objective.target:>8.4f} {result.compliance:>8.4f} "
            f"{result.burn_long:>8.2f} {result.burn_short:>8.2f} "
            f"{result.total:>8}  {verdict}"
        )
    lines.append(f"overall: {'OK' if report.ok else 'FAILING'}")
    return "\n".join(lines)


__all__ = [
    "KIND_AVAILABILITY",
    "KIND_WAN_PER_QUERY",
    "KIND_STAGE_LATENCY",
    "Objective",
    "SLOSpec",
    "SLOEngine",
    "ObjectiveResult",
    "SLOReport",
    "evaluate_sources",
    "render_slo_report",
]
