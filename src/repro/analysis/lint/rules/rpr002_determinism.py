"""RPR002 — nondeterminism in replay-critical code, direct or reached.

``run_sweep``/``compare_policies``/``simulate_fleet`` guarantee that
``parallel=True`` and serial execution produce byte-identical results
in deterministic order; replay equivalence between the simulator and
the proxy, byte-identical fault replay from ``(seed, schedule)`` and
trace replay all rest on the same property.  A function of
``repro.core`` / ``repro.sim`` / ``repro.obs`` / ``repro.faults`` /
``repro.workload`` must therefore neither contain nor *reach*, through
any chain of project calls, one of the hazards the flow extraction
records (:func:`repro.analysis.flow.contracts.nondet_call_reason`):

* the module-global ``random`` API (``random.random()``,
  ``random.shuffle()``, names pulled in by ``from random import …``)
  and ``random.Random()`` constructed *without* a seed — seed a local
  ``random.Random(seed)`` instead (``SpaceEffBY`` shows the pattern);
* wall-clock and entropy reads: ``time.time``/``monotonic``/
  ``perf_counter``/``process_time`` (and ``_ns`` variants),
  ``datetime.now``/``utcnow``/``today``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, and anything from ``secrets``;
* iterating directly over a ``set`` display or ``set(...)`` call in a
  ``for`` loop or comprehension — set iteration order varies across
  processes; sort first (``sorted(...)`` is deterministic).

Every direct site is reported where it stands; a function with no
hazard of its own that reaches one is reported at the call that leads
there, with the chain spelled out — a helper three modules away
calling ``random.random()`` breaks replay just as surely as an inline
call.  Sanctioned seams absorb taint
(:data:`~repro.analysis.flow.contracts.NONDET_SEAM_QUALNAMES`):
``uniform_draw`` is hash-keyed and deterministic by construction,
``wall_clock_timestamp`` stamps run metadata at the CLI edge.

Observability-only exceptions carry a pragma at the hazard: per line
for isolated reads (e.g. stage timers), or a module-level
``# repro-lint: allow-file[RPR002]`` when the module's whole purpose is
sanctioned (``repro.obs.manifest`` stamps wall-clock timestamps at the
CLI edge by design).  A hazard suppressed at its source never enters
the taint computation, wherever its callers live.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.flow import contracts
from repro.analysis.lint.engine import (
    FileContext,
    LintViolation,
    Rule,
    register_rule,
)

#: Packages whose functions must stay deterministically replayable.
_SCOPE = ("core", "sim", "obs", "faults", "workload")

_ADVICE = (
    "route entropy through uniform_draw() and timestamps through "
    "wall_clock_timestamp(), or pragma-allow an observability-only read"
)


@register_rule
class NondeterminismRule(Rule):
    """Flag entropy, wall clocks, and set iteration in replay paths."""

    rule_id = "RPR002"
    summary = (
        "replay-critical functions must neither contain nor reach "
        "unseeded randomness, wall-clock reads, or set-order iteration"
    )

    def applies_to(self, context: FileContext) -> bool:
        return any(context.has_segments(segment) for segment in _SCOPE)

    def check(self, context: FileContext) -> Iterator[LintViolation]:
        project = context.project
        for facts in project.functions_in(context.module):
            if contracts.is_seam(facts.qualname):
                continue
            for site in facts.nondet:
                yield LintViolation(
                    rule_id=self.rule_id,
                    path=str(context.path),
                    line=site.line,
                    col=site.col,
                    message=(
                        f"{facts.qualname} contains {site.reason}; "
                        f"{_ADVICE}"
                    ),
                )
            taint = project.summaries[facts.qualname].taint
            if taint is None or taint.via is None:
                continue
            hops = " -> ".join(
                qualname
                for qualname, _ in project.taint_chain(facts.qualname)
            )
            yield LintViolation(
                rule_id=self.rule_id,
                path=str(context.path),
                line=taint.line,
                col=0,
                message=(
                    f"{facts.qualname} reaches {taint.reason} via "
                    f"{hops}; {_ADVICE}"
                ),
            )
