"""Per-figure and per-table reproduction modules.

Naming follows the paper: ``figure03`` reproduces Figure 3, ``table02``
Table 2, and so on.  Each module builds a result object with
``render_text()`` plus the raw series from the reduced campaign contract
(:class:`~repro.scanners.streaming.ReducedScanResults`): a ``compute_from_*``
over its accumulators, or a plain ``compute`` where the input travels
unreduced (the funnel, the Figure 3 sweep, stage 5 and the static Table 3).
Reports and exports call the same functions; the paper ledger
(``tests/test_paper_ledger.py``) checks their results through the report.
"""

from . import (
    figure02b,
    figure03,
    figure04,
    figure05,
    figure06,
    figure07,
    figure08,
    figure09,
    figure11,
    figure12,
    figure13,
    figure14,
    table01,
    table02,
    table03,
    compression,
    meta_prefix,
    funnel,
)

ALL_FIGURE_MODULES = {
    "figure02b": figure02b,
    "figure03": figure03,
    "figure04": figure04,
    "figure05": figure05,
    "figure06": figure06,
    "figure07": figure07,
    "figure08": figure08,
    "figure09": figure09,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "table01": table01,
    "table02": table02,
    "table03": table03,
    "compression": compression,
    "meta_prefix": meta_prefix,
    "funnel": funnel,
}

__all__ = ["ALL_FIGURE_MODULES"] + list(ALL_FIGURE_MODULES)
