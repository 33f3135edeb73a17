"""Analysis layer: datasets, CDFs, statistics and per-figure reproductions.

Every table and figure of the paper's evaluation has a module under
:mod:`repro.analysis.figures` that builds a structured result with a
``render_text()`` method from the reduced campaign contract
(:class:`repro.scanners.streaming.ReducedCampaignResults`), so the whole
evaluation can be regenerated as text tables / data series.
"""

from .cdf import EmpiricalCdf
from .dataset import Table, Column
from .stats import median, mean, percentile, share

__all__ = ["EmpiricalCdf", "Table", "Column", "median", "mean", "percentile", "share"]
