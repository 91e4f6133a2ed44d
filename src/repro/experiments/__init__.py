"""One module per paper table/figure; each exposes ``run`` and ``render``.

| Module                      | Paper artifact                      |
|-----------------------------|-------------------------------------|
| ``fig4_containment``        | Fig. 4 — query containment          |
| ``fig5_column_locality``    | Fig. 5 — column locality            |
| ``fig6_table_locality``     | Fig. 6 — table locality             |
| ``fig7_cost_tables``        | Fig. 7 — cost series, tables        |
| ``fig8_cost_columns``       | Fig. 8 — cost series, columns       |
| ``fig9_cache_size_tables``  | Fig. 9 — cache-size sweep, tables   |
| ``fig10_cache_size_columns``| Fig. 10 — cache-size sweep, columns |
| ``table1_column_breakdown`` | Table 1 — breakdown, columns        |
| ``table2_table_breakdown``  | Table 2 — breakdown, tables         |
| ``fig_resilience``          | Resilience — faults vs WAN/avail.   |
| ``fig_fleet``               | Fleet — cooperative vs independent  |

Each ``run`` returns a structured result with a ``shape_holds`` property
asserting the paper's qualitative claim; ``render`` produces the
plain-text table/chart.  ``python -m repro.experiments.run_all`` runs
every module and exits 1 when any shape does not hold.

The figure modules are imported on first access, not with the package:
``python -m repro.experiments.<module>`` then runs that module once, as
``__main__``, instead of once as a package member and again as a script.
The module ``__getattr__`` keeps ``repro.experiments.fig_fleet`` (and
every other ``__all__`` name) resolving after a bare ``import
repro.experiments``, as it did when the package imported them eagerly.
"""

import importlib
from types import ModuleType

from repro.experiments.common import (
    ExperimentContext,
    build_context,
    clear_memo,
)

__all__ = [
    "ExperimentContext",
    "build_context",
    "clear_memo",
    "fig4_containment",
    "fig5_column_locality",
    "fig6_table_locality",
    "fig7_cost_tables",
    "fig8_cost_columns",
    "fig9_cache_size_tables",
    "fig10_cache_size_columns",
    "fig_fleet",
    "fig_resilience",
    "table1_column_breakdown",
    "table2_table_breakdown",
]


def __getattr__(name: str) -> ModuleType:
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
