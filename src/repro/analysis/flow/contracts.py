"""The effect-contract registry: shared state, mutators, and seams.

This module is the one place the lint rules' contracts are declared:
*which* attributes constitute shared policy/cache/ledger/accounting
state, *which* methods are the sanctioned mutators of that state,
*which* functions are the sanctioned seams through which
nondeterminism and wall clocks may enter a deterministic replay, and
*which* owners mutate only under the service's decision lock.

Three rules consume it:

* RPR004 flags writes to a contract's attributes outside its mutators;
* RPR002 reads the nondet-source tables and stops nondeterminism taint
  at the sanctioned seams;
* RPR011 flags service code calling a lock-guarded owner's mutators
  around the lock-holder seam.

Contracts registered here are defaults for ``src/repro``; tests and
future subsystems add their own via :func:`register_contract`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Nondeterminism sources and sanctioned seams
# ---------------------------------------------------------------------------

#: Fully-qualified calls that read wall clocks or OS entropy.
CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Method names on ``datetime``/``date`` objects that read the clock.
DATETIME_NOW: FrozenSet[str] = frozenset({"now", "utcnow", "today"})

#: Functions through which entropy/wall-clock reads are *sanctioned*:
#: calls into these never propagate nondeterminism taint.  The draw
#: seam is hash-keyed (deterministic by construction); the timestamp
#: seam stamps run metadata at the CLI edge, never replay state.
NONDET_SEAM_QUALNAMES: FrozenSet[str] = frozenset(
    {
        "repro.faults.engine.uniform_draw",
        "repro.obs.manifest.wall_clock_timestamp",
    }
)

#: Bare-name fallback for the seams, so fixture projects (and callers
#: that re-export the seam under its own name) resolve identically.
NONDET_SEAM_NAMES: FrozenSet[str] = frozenset(
    {"uniform_draw", "wall_clock_timestamp"}
)


def is_seam(qualname: str) -> bool:
    """Whether ``qualname`` is a sanctioned nondeterminism seam."""
    if qualname in NONDET_SEAM_QUALNAMES:
        return True
    return qualname.rsplit(".", 1)[-1] in NONDET_SEAM_NAMES


def nondet_call_reason(
    qualname: str, has_arguments: bool
) -> Optional[str]:
    """Why a call to ``qualname`` is nondeterministic, or None.

    ``has_arguments`` distinguishes ``random.Random(seed)`` (seeded,
    deterministic) from ``random.Random()`` (entropy-seeded).
    """
    head, _, tail = qualname.rpartition(".")
    if head == "random" or head.endswith(".random"):
        if tail == "Random":
            return None if has_arguments else "random.Random() unseeded"
        if tail == "SystemRandom":
            return "random.SystemRandom is OS entropy"
        return f"module-global {qualname}()"
    if qualname in CLOCK_CALLS:
        return f"{qualname}() reads the wall clock / OS entropy"
    if qualname.startswith("secrets.") or head == "secrets":
        return f"{qualname}() is OS entropy"
    if tail in DATETIME_NOW and head.rsplit(".", 1)[-1] in (
        "datetime",
        "date",
    ):
        return f"{qualname}() reads the wall clock"
    return None


# ---------------------------------------------------------------------------
# Shared-state effect contracts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectContract:
    """Who owns a piece of shared policy/cache/ledger state.

    Attributes:
        owner: Class name owning the state.
        attrs: Attribute names constituting the shared state.
        mutators: Method names sanctioned to write those attributes
            (``__init__`` is always implicitly sanctioned — an object
            under construction is not yet shared).
        description: One line on what the state is, for messages.
    """

    owner: str
    attrs: FrozenSet[str]
    mutators: FrozenSet[str]
    description: str = ""

    def sanctions(self, method: str) -> bool:
        """Whether ``method`` of the owner may write the state."""
        return method == "__init__" or method in self.mutators


_DEFAULT_CONTRACTS: Tuple[EffectContract, ...] = (
    EffectContract(
        owner="TrafficLedger",
        attrs=frozenset(
            {
                "bypass_bytes",
                "load_bytes",
                "cache_bytes",
                "retry_bytes",
                "bypass_cost",
                "load_cost",
                "retry_cost",
                "peer_bytes",
                "peer_cost",
                "per_server_bypass",
                "per_server_load",
                "per_server_retry",
                "per_server_peer",
            }
        ),
        mutators=frozenset(
            {
                "record_bypass",
                "record_load",
                "record_cache_hit",
                "record_retry",
                "record_peer",
                "restore",
                "reset",
            }
        ),
        description="federation WAN/peer byte and cost totals",
    ),
    EffectContract(
        owner="CostBreakdown",
        attrs=frozenset(
            {"bypass_bytes", "load_bytes", "retry_bytes", "peer_bytes"}
        ),
        mutators=frozenset({"charge"}),
        description="simulator WAN/peer breakdown",
    ),
    EffectContract(
        owner="SimulationResult",
        attrs=frozenset(
            {
                "weighted_cost",
                "served_queries",
                "yield_bytes",
                "served_yield_bytes",
                "loads",
                "evictions",
                "retries",
                "failed_loads",
                "partial_queries",
                "unavailable_queries",
                "queries",
                "peer_hits",
            }
        ),
        mutators=frozenset({"charge"}),
        description="per-run simulation counters",
    ),
    EffectContract(
        owner="BypassObjectCache",
        attrs=frozenset(
            {
                "_entries",
                "_fetch_costs",
                "_victims",
                "_offset",
                "_load_seq",
                "_accounts",
                "hits",
                "misses",
                "loads",
            }
        ),
        mutators=frozenset(
            {
                "request",
                "evict",
                "_set_credit",
                "_make_room",
                "_prune_accounts",
            }
        ),
        description="Landlord cache state (victim heap, global offset)",
    ),
    EffectContract(
        owner="VictimHeap",
        attrs=frozenset({"_heap", "_keys"}),
        mutators=frozenset(
            {"set", "discard", "pop_min", "select_min", "_compact", "clear"}
        ),
        description="lazy-deletion victim heap internals",
    ),
    EffectContract(
        owner="CircuitBreaker",
        attrs=frozenset(
            {
                "_state",
                "_consecutive_failures",
                "_opened_at",
                "_transitions",
                "_rejections",
            }
        ),
        mutators=frozenset(
            {"allows", "record_success", "record_failure", "_move"}
        ),
        description="per-server breaker state machine",
    ),
    EffectContract(
        owner="DatabaseServer",
        attrs=frozenset({"bytes_shipped", "queries_executed"}),
        mutators=frozenset(
            {"execute", "fetch_object", "record_shipment"}
        ),
        description="per-server shipped-traffic attribution",
    ),
    EffectContract(
        owner="ConsistentHashRing",
        attrs=frozenset({"_shards", "_nodes", "_points"}),
        mutators=frozenset(
            {"add_shard", "remove_shard", "_reindex"}
        ),
        description="fleet hash-ring membership and node index",
    ),
    EffectContract(
        owner="SpanTracer",
        attrs=frozenset(
            {"spans", "spans_seen", "_clock", "_stack", "_sinks"}
        ),
        mutators=frozenset(
            {"start", "finish", "record", "add_sink", "reset"}
        ),
        description=(
            "span tracer buffer, logical clock, and sink fan-out"
        ),
    ),
    EffectContract(
        owner="ShapeFacts",
        attrs=frozenset({"_facts"}),
        mutators=frozenset({"fill"}),
        description=(
            "per-query-shape memo shared by every plan of the shape "
            "(attribution, routing, the yield program); fill() is the "
            "one seam yield_model, statistics and mediator write through"
        ),
    ),
    # The accounting value objects: built once, never written again.
    EffectContract(
        owner="QueryAccounting",
        attrs=frozenset(
            {
                "load_bytes",
                "load_cost",
                "bypass_bytes",
                "bypass_cost",
                "retry_bytes",
                "retry_cost",
                "peer_bytes",
                "peer_cost",
                "wan_bytes",
                "weighted_cost",
            }
        ),
        mutators=frozenset(),
        description="one query's WAN charges (frozen)",
    ),
    EffectContract(
        owner="FederatedResult",
        attrs=frozenset({"wan_bytes", "wan_cost"}),
        mutators=frozenset(),
        description="one bypass execution's WAN totals",
    ),
    EffectContract(
        owner="DecisionEvent",
        attrs=frozenset(
            {
                "load_bytes",
                "bypass_bytes",
                "retry_bytes",
                "peer_bytes",
                "wan_bytes",
                "weighted_cost",
            }
        ),
        mutators=frozenset(),
        description="one persisted decision's WAN charges (frozen)",
    ),
    EffectContract(
        owner="JsonlWriter",
        attrs=frozenset({"_written", "_handle"}),
        mutators=frozenset({"_open", "write_record", "close"}),
        description="trace/span file writer (stream handle and line count)",
    ),
)

#: owner class name -> contract.  Mutated only by register_contract.
_REGISTRY: Dict[str, EffectContract] = {
    contract.owner: contract for contract in _DEFAULT_CONTRACTS
}


def register_contract(contract: EffectContract) -> EffectContract:
    """Add (or replace) a contract in the registry; returns it."""
    _REGISTRY[contract.owner] = contract
    return contract


def contract_for(owner: str) -> Optional[EffectContract]:
    """The contract registered for class ``owner``, if any."""
    return _REGISTRY.get(owner)


def all_contracts() -> List[EffectContract]:
    """Registered contracts in deterministic owner order."""
    return [_REGISTRY[owner] for owner in sorted(_REGISTRY)]


def owners_of_attr(attr: str) -> List[EffectContract]:
    """Contracts that claim attribute ``attr``, in owner order."""
    return [
        contract
        for contract in all_contracts()
        if attr in contract.attrs
    ]


def strict_attrs() -> FrozenSet[str]:
    """Attribute names distinctive enough to police on *any* holder.

    Writes like ``obj.load_bytes = …`` are flagged wherever they
    appear; generic counter names (``hits``, ``loads``, ``queries``)
    are only policed on ``self`` inside their owning class, where the
    class name disambiguates them.
    """
    generic = frozenset(
        {
            "hits",
            "misses",
            "loads",
            "queries",
            "evictions",
            "retries",
        }
    )
    names = set()
    for contract in all_contracts():
        names.update(contract.attrs - generic)
    return frozenset(names)


#: The WAN accounting vocabulary.  These names are reserved for the
#: accounting contracts above wherever they appear: RPR004 flags a
#: write to one even on ``self`` in a class that owns no contract for
#: it (any other contract attribute is only policed on ``self`` inside
#: its owner, where the class name disambiguates it).
ACCOUNTING_FIELDS: FrozenSet[str] = frozenset(
    {
        "load_bytes",
        "bypass_bytes",
        "cache_bytes",
        "load_cost",
        "bypass_cost",
        "retry_bytes",
        "retry_cost",
        "peer_bytes",
        "peer_cost",
        "wan_bytes",
        "wan_cost",
        "weighted_cost",
    }
)


# ---------------------------------------------------------------------------
# Decision-lock discipline (repro.service)
# ---------------------------------------------------------------------------

#: Contract owners whose state the mediator service may mutate only
#: under the per-federation decision lock: the Landlord cache (victim
#: heaps, global credit offset), the heap internals themselves, and
#: the federation traffic ledger.  RPR011 polices this set.
LOCK_GUARDED_OWNERS: FrozenSet[str] = frozenset(
    {"BypassObjectCache", "VictimHeap", "TrafficLedger"}
)

#: The sanctioned lock-holder seam: the ``DecisionGate`` methods that
#: take the decision lock once before running the shared per-query
#: step — on one query, or on each query of a drained run.  Service
#: code reaching guarded state through any other path defeats the
#: lock.
LOCK_HOLDER_QUALNAMES: FrozenSet[str] = frozenset(
    {
        "repro.service.session.DecisionGate.locked_resolve",
        "repro.service.session.DecisionGate.locked_resolve_run",
    }
)

#: Bare-name fallback for the seam (fixture projects and re-exports
#: resolve identically, mirroring NONDET_SEAM_NAMES).
LOCK_HOLDER_NAMES: FrozenSet[str] = frozenset(
    {"locked_resolve", "locked_resolve_run"}
)

#: Mutator bare names too generic to police by name alone — ``set``
#: is also asyncio.Event.set, ``request`` is also
#: http.client.HTTPConnection.request, and so on.  RPR011 only matches
#: calls against the distinctive remainder.
_GENERIC_MUTATOR_NAMES: FrozenSet[str] = frozenset(
    {"set", "discard", "clear", "request", "evict", "reset", "restore"}
)


def in_service_scope(module: str) -> bool:
    """Whether ``module`` is part of a serving (``service``) package."""
    return "service" in module.split(".")


def is_lock_holder(name: str, qualname: str) -> bool:
    """Whether a function is the sanctioned decision-lock holder."""
    return name in LOCK_HOLDER_NAMES or qualname in LOCK_HOLDER_QUALNAMES


def lock_guarded_contracts() -> List[EffectContract]:
    """Contracts of the lock-guarded owners, in owner order."""
    return [
        contract
        for contract in all_contracts()
        if contract.owner in LOCK_GUARDED_OWNERS
    ]


def lock_guarded_mutator_names() -> FrozenSet[str]:
    """Distinctive mutator names of the lock-guarded owners.

    A call to one of these from service code (outside the lock-holder
    seam) is a lock-discipline violation wherever the receiver came
    from — the names are unique enough that the callee is never an
    innocent stdlib method.
    """
    names = set()
    for contract in lock_guarded_contracts():
        names.update(contract.mutators - _GENERIC_MUTATOR_NAMES)
    return frozenset(names)
