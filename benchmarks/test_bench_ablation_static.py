"""Ablation: greedy vs exact static-set selection.

The optimal-static comparator uses density-greedy selection.  At table
granularity the instance is small enough to solve exactly by subset
enumeration, which bounds how much the greedy heuristic gives up.
"""

from __future__ import annotations

from repro.core.pipeline import ObjectCatalog
from repro.core.policies import (
    StaticPolicy,
    accumulate_object_yields,
    choose_static_objects,
    choose_static_objects_exact,
)
from repro.sim.reporting import format_table
from repro.sim.simulator import Simulator


def run_comparison(context, fraction=0.3):
    capacity = context.capacity_for(fraction)
    yields = accumulate_object_yields(context.prepared, "table")
    catalog = ObjectCatalog(context.federation)
    sizes = {object_id: catalog.size(object_id) for object_id in yields}
    simulator = Simulator(context.federation, "table")
    outcome = {}
    for label, selector in (
        ("greedy", choose_static_objects),
        ("exact", choose_static_objects_exact),
    ):
        chosen = selector(yields, sizes, capacity)
        policy = StaticPolicy(capacity, chosen)
        result = simulator.run(context.prepared, policy, record_series=False)
        outcome[label] = (chosen, result)
    return outcome


def test_greedy_static_selection_near_exact(benchmark, edr_context):
    outcome = benchmark.pedantic(
        run_comparison, args=(edr_context,), rounds=1, iterations=1
    )
    rows = [
        [
            label,
            ", ".join(sorted(chosen)),
            result.total_bytes / 1e6,
            f"{result.hit_rate:.3f}",
        ]
        for label, (chosen, result) in outcome.items()
    ]
    print()
    print(
        format_table(
            ["selector", "chosen objects", "total (MB)", "hit rate"],
            rows,
            title="Ablation: static-set selection (tables, 30% cache)",
        )
    )
    greedy_total = outcome["greedy"][1].total_bytes
    exact_total = outcome["exact"][1].total_bytes
    # Greedy must stay close to the exact optimum of its own objective.
    assert greedy_total <= exact_total * 1.25 + 1e5
