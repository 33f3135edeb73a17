"""First-class what-if scenarios over the reproduction pipeline.

See :mod:`repro.scenarios.spec` for the contract and
:mod:`repro.scenarios.grid` for multi-scenario sweeps.  The comparison and
grid helpers are exposed lazily (PEP 562): they import the campaign
orchestrator, which itself imports the scanner stack that depends on this
package's spec module.
"""

from .builtin import (
    BASELINE,
    BASELINE_FINGERPRINT,
    BUILTIN_SCENARIOS,
    load_scenario,
)
from .spec import ScenarioError, ScenarioSpec

__all__ = [
    "BASELINE",
    "BASELINE_FINGERPRINT",
    "BUILTIN_GRIDS",
    "BUILTIN_SCENARIOS",
    "GridComparison",
    "ScenarioError",
    "ScenarioGrid",
    "ScenarioOutcome",
    "ScenarioSpec",
    "compare_grid",
    "load_grid",
    "load_scenario",
    "outcome_from_results",
]

_LAZY_COMPARE = {
    "compare_grid",
    "GridComparison",
    "ScenarioOutcome",
    "outcome_from_results",
}
_LAZY_GRID = {"ScenarioGrid", "BUILTIN_GRIDS", "load_grid"}


def __getattr__(name):
    if name in _LAZY_COMPARE:
        from . import compare

        return getattr(compare, name)
    if name in _LAZY_GRID:
        from . import grid

        return getattr(grid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
