"""Cache policies: the paper's algorithms plus every baseline.

The :data:`POLICY_REGISTRY` maps short names to constructors taking a
capacity in bytes; :func:`make_policy` is the factory the simulator and
benchmarks use.
"""

from typing import Any, Callable, Dict

from repro.core.policies.base import CachePolicy
from repro.core.policies.baselines import (
    GreedyDualSizePolicy,
    LRUPolicy,
    NoCachePolicy,
    SemanticCachePolicy,
    StaticPolicy,
)
from repro.core.policies.online import OnlineBYPolicy, SpaceEffBYPolicy
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.core.policies.static_select import (
    accumulate_object_yields,
    choose_static_objects,
    choose_static_objects_exact,
)
from repro.core.units import AnyRawBytes
from repro.errors import CacheError

POLICY_REGISTRY: Dict[str, Callable[[int], CachePolicy]] = {
    "rate-profile": RateProfilePolicy,
    "online-by": OnlineBYPolicy,
    "space-eff-by": SpaceEffBYPolicy,
    "gds": GreedyDualSizePolicy,
    "lru": LRUPolicy,
    "no-cache": NoCachePolicy,
    "semantic": SemanticCachePolicy,
}


def make_policy(
    name: str, capacity_bytes: AnyRawBytes, **kwargs: Any
) -> CachePolicy:
    """Instantiate a registered policy by name.

    Raises:
        CacheError: for unknown policy names.
    """
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        raise CacheError(
            f"unknown policy {name!r}; known: {sorted(POLICY_REGISTRY)}"
        ) from None
    return factory(capacity_bytes, **kwargs)


__all__ = [
    "CachePolicy",
    "GreedyDualSizePolicy",
    "LRUPolicy",
    "NoCachePolicy",
    "OnlineBYPolicy",
    "POLICY_REGISTRY",
    "RateProfilePolicy",
    "SemanticCachePolicy",
    "SpaceEffBYPolicy",
    "StaticPolicy",
    "accumulate_object_yields",
    "choose_static_objects",
    "choose_static_objects_exact",
    "make_policy",
]
