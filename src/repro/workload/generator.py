"""Synthetic SDSS-like trace generation.

The generator reproduces the workload *properties* the paper's Section
6.1 analysis identifies as the ones that matter for cache design:

* **schema locality** — users dwell on a theme (a small working set of
  templates, hence tables/columns) for long stretches; theme switches
  follow a Markov regime process with geometric dwell times;
* **episodes/burstiness** — within a theme, accesses to an object cluster
  in time, then go quiet;
* **negligible query containment** — every instantiation draws fresh
  predicate parameters, and identity queries rarely repeat an object id.

Two flavors, ``edr`` and ``dr1``, mirror the paper's two data releases:
they differ in seed, theme mixture, and dwell times, so DR1 produces a
different (heavier) traffic profile as in the paper's Tables 1-2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import WorkloadError
from repro.workload.sdss_schema import SMALL, ScaleProfile
from repro.workload.templates import (
    COLD_TEMPLATES,
    TEMPLATES,
    THEMES,
    RegionCursor,
    pick_template,
)
from repro.workload.trace import Trace, TraceRecord

#: Theme weights per flavor.  EDR skews to imaging sweeps; DR1 adds more
#: spectroscopy and cross-match work (new data products drew new users).
FLAVOR_THEME_WEIGHTS: Dict[str, Dict[str, float]] = {
    "edr": {
        "imaging": 0.40,
        "spectro": 0.25,
        "spatial": 0.20,
        "survey_qa": 0.15,
    },
    "dr1": {
        "imaging": 0.30,
        "spectro": 0.35,
        "spatial": 0.15,
        "survey_qa": 0.10,
        "crossmatch": 0.10,
    },
}

FLAVOR_SEEDS = {"edr": 1001, "dr1": 2002}


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for trace generation.

    Attributes:
        num_queries: Trace length.
        flavor: ``"edr"`` or ``"dr1"`` (theme mixture preset), or
            ``"custom"`` with explicit ``theme_weights``.
        seed: RNG seed; defaults to the flavor's canonical seed.
        mean_dwell: Mean queries spent in one theme before switching.
        theme_weights: Explicit mixture (required for ``"custom"``).
        include_crossmatch: Allow the cross-server FIRST templates even
            for flavors that normally exclude them.
        cold_prob: Probability that a query is a one-off reference to a
            bulk archive table (Frame/Mask/ObjProfile) instead of a theme
            query.  These references are what make in-line caching thrash.
    """

    num_queries: int = 5000
    flavor: str = "edr"
    seed: Optional[int] = None
    mean_dwell: int = 250
    theme_weights: Optional[Dict[str, float]] = None
    include_crossmatch: bool = False
    cold_prob: float = 0.05

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise WorkloadError("num_queries must be positive")
        if self.mean_dwell <= 0:
            raise WorkloadError("mean_dwell must be positive")
        if not 0.0 <= self.cold_prob < 1.0:
            raise WorkloadError("cold_prob must be within [0, 1)")
        if self.flavor == "custom":
            if not self.theme_weights:
                raise WorkloadError(
                    "custom flavor requires explicit theme_weights"
                )
        elif self.flavor not in FLAVOR_THEME_WEIGHTS:
            raise WorkloadError(
                f"unknown flavor {self.flavor!r}; "
                f"use {sorted(FLAVOR_THEME_WEIGHTS)} or 'custom'"
            )

    def resolved_weights(self) -> Dict[str, float]:
        if self.theme_weights is not None:
            weights = dict(self.theme_weights)
        else:
            weights = dict(FLAVOR_THEME_WEIGHTS[self.flavor])
        unknown = set(weights) - set(THEMES)
        if unknown:
            raise WorkloadError(f"unknown themes: {sorted(unknown)}")
        total = sum(weights.values())
        if total <= 0:
            raise WorkloadError("theme weights must sum to a positive value")
        return {name: weight / total for name, weight in weights.items()}

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return FLAVOR_SEEDS.get(self.flavor, 7)


def trace_name(config: TraceConfig) -> str:
    """The canonical trace name for a generation config."""
    return f"{config.flavor}-{config.num_queries}"


def iter_trace_records(
    config: TraceConfig, profile: ScaleProfile = SMALL
) -> Iterator[TraceRecord]:
    """Stream the configured trace one record at a time.

    This is the constant-memory spelling of :func:`generate_trace`: the
    same seeded RNG draws in the same order, so materializing the
    iterator reproduces the batch result record for record.  Million-
    query traces iterate here without ever holding more than one record.
    """
    rng = random.Random(config.resolved_seed())
    weights = config.resolved_weights()
    cursor = RegionCursor(rng)
    if config.include_crossmatch and "crossmatch" not in weights:
        weights = dict(weights)
        weights["crossmatch"] = 0.1
        total = sum(weights.values())
        weights = {k: v / total for k, v in weights.items()}

    theme = _draw_theme(weights, rng)
    switch_prob = 1.0 / config.mean_dwell
    for index in range(config.num_queries):
        if rng.random() < switch_prob:
            theme = _draw_theme(weights, rng)
        if config.cold_prob and rng.random() < config.cold_prob:
            template = TEMPLATES[rng.choice(COLD_TEMPLATES)]
            record_theme = "cold"
        else:
            template = pick_template(theme, rng)
            record_theme = theme
        sql = template.build(rng, cursor, profile)
        yield TraceRecord(
            index=index,
            sql=sql,
            template=template.name,
            theme=record_theme,
        )


def generate_trace(
    config: TraceConfig, profile: ScaleProfile = SMALL
) -> Trace:
    """Generate a trace with the configured locality structure."""
    trace = Trace(name=trace_name(config))
    for record in iter_trace_records(config, profile):
        trace.append(record)  # repro-lint: allow[RPR007] batch API for classic sweeps; scale path streams iter_trace_records
    return trace


def _draw_theme(weights: Dict[str, float], rng: random.Random) -> str:
    point = rng.random()
    acc = 0.0
    for name, weight in weights.items():
        acc += weight
        if point <= acc:
            return name
    return next(iter(weights))


def edr_trace(
    num_queries: int = 5000, profile: ScaleProfile = SMALL
) -> Trace:
    """The canonical EDR-flavor trace ('Set 1' in Tables 1-2)."""
    return generate_trace(
        TraceConfig(num_queries=num_queries, flavor="edr"), profile
    )


def dr1_trace(
    num_queries: int = 5000, profile: ScaleProfile = SMALL
) -> Trace:
    """The canonical DR1-flavor trace ('Set 2' in Tables 1-2)."""
    return generate_trace(
        TraceConfig(num_queries=num_queries, flavor="dr1"), profile
    )
