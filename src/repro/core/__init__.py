"""The paper's contribution: the bypass-yield caching framework.

* :mod:`repro.core.yield_model` — yield attribution rules (Section 6).
* :mod:`repro.core.metrics` — BYHR / BYU (Section 3, eqs. 1-2).
* :mod:`repro.core.ski_rental` — the rent-to-buy primitive (Section 5.1).
* :mod:`repro.core.object_cache` — bypass-object caching ``A_obj``
  (rent-to-buy admission + Landlord eviction).
* :mod:`repro.core.policies` — Rate-Profile (Section 4), OnlineBY and
  SpaceEffBY (Section 5), and the baselines (GDS, LRU, static,
  semantic, no-cache).
* :mod:`repro.core.pipeline` — the decision pipeline shared by the
  offline simulator and the online proxy (query construction, cost
  views, WAN accounting).
* :mod:`repro.core.instrumentation` — counters, decision events, stage
  timers, and pluggable probes for every replay.
* :mod:`repro.core.units` — typed byte/cost units (``RawBytes``,
  ``WeightedCost``, ``Yield``) and the sanctioned ``weigh`` /
  ``unweigh`` conversions, checked by ``repro-lint``.
"""

from repro.core.analysis import (
    CompetitiveReport,
    measure_competitive_ratio,
    offline_single_object_opt,
    opt_lower_bound,
)
from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.instrumentation import (
    DecisionEvent,
    Instrumentation,
    Probe,
)
from repro.core.pipeline import (
    DecisionPipeline,
    ObjectCatalog,
    QueryAccounting,
    shared_catalog,
)
from repro.core.metrics import (
    WorkloadProfiler,
    byte_yield_hit_rate,
    byte_yield_utility,
)
from repro.core.object_cache import BypassObjectCache, ObjectOutcome
from repro.core.proxy import BypassYieldProxy, ProxyResponse
from repro.core.policies import (
    POLICY_REGISTRY,
    CachePolicy,
    GreedyDualSizePolicy,
    LRUPolicy,
    NoCachePolicy,
    OnlineBYPolicy,
    RateProfilePolicy,
    SemanticCachePolicy,
    SpaceEffBYPolicy,
    StaticPolicy,
    accumulate_object_yields,
    choose_static_objects,
    make_policy,
)
from repro.core.ski_rental import SkiRental
from repro.core.store import CacheStore
from repro.core.units import (
    UNIT_WEIGHT,
    ZERO_BYTES,
    ZERO_COST,
    ZERO_YIELD,
    RawBytes,
    WeightedCost,
    Yield,
    per_byte_weight,
    raw_bytes,
    unweigh,
    weigh,
)
from repro.core.yield_model import (
    attribute_yield_columns,
    attribute_yield_tables,
    referenced_columns,
    referenced_object_ids,
)

__all__ = [
    "BypassObjectCache",
    "BypassYieldProxy",
    "CompetitiveReport",
    "CachePolicy",
    "CacheQuery",
    "CacheStore",
    "Decision",
    "DecisionEvent",
    "DecisionPipeline",
    "GreedyDualSizePolicy",
    "LRUPolicy",
    "Instrumentation",
    "NoCachePolicy",
    "ObjectCatalog",
    "ObjectOutcome",
    "ObjectRequest",
    "OnlineBYPolicy",
    "POLICY_REGISTRY",
    "Probe",
    "ProxyResponse",
    "QueryAccounting",
    "RateProfilePolicy",
    "RawBytes",
    "SemanticCachePolicy",
    "SkiRental",
    "SpaceEffBYPolicy",
    "StaticPolicy",
    "UNIT_WEIGHT",
    "WeightedCost",
    "WorkloadProfiler",
    "Yield",
    "ZERO_BYTES",
    "ZERO_COST",
    "ZERO_YIELD",
    "accumulate_object_yields",
    "attribute_yield_columns",
    "attribute_yield_tables",
    "byte_yield_hit_rate",
    "byte_yield_utility",
    "choose_static_objects",
    "make_policy",
    "measure_competitive_ratio",
    "offline_single_object_opt",
    "opt_lower_bound",
    "per_byte_weight",
    "raw_bytes",
    "referenced_columns",
    "referenced_object_ids",
    "shared_catalog",
    "unweigh",
    "weigh",
]
