"""Trace-driven simulation and experiment orchestration.

* :class:`~repro.sim.simulator.Simulator` — replay a prepared trace
  through one policy with exact WAN accounting (a thin driver over
  :class:`~repro.core.pipeline.DecisionPipeline`).
* :mod:`repro.sim.runner` — policy comparisons and cache-size sweeps,
  optionally fanned out over worker processes.
* :mod:`repro.sim.multi` — fleet simulation: independent caches by
  default, cooperative consistent-hash sharding via
  ``simulate_fleet(cooperative=True)`` (see :mod:`repro.fleet`).
* :mod:`repro.sim.results` — cost breakdowns, series, sweep containers.
* :mod:`repro.sim.reporting` — plain-text tables, ASCII charts, and
  instrumentation rendering.
"""

from repro.core.pipeline import ObjectCatalog
from repro.sim.multi import ClientSite, FleetResult, simulate_fleet
from repro.sim.results import (
    CostBreakdown,
    SimulationResult,
    SweepPoint,
    SweepResult,
)
from repro.sim.runner import (
    DEFAULT_POLICIES,
    build_fleet,
    build_policy,
    compare_policies,
    run_single,
    run_sweep,
)
from repro.sim.simulator import Simulator

__all__ = [
    "ClientSite",
    "CostBreakdown",
    "FleetResult",
    "DEFAULT_POLICIES",
    "ObjectCatalog",
    "SimulationResult",
    "Simulator",
    "SweepPoint",
    "SweepResult",
    "build_fleet",
    "build_policy",
    "compare_policies",
    "run_single",
    "run_sweep",
    "simulate_fleet",
]
