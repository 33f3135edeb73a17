"""Benchmark: an N-scenario grid sweep vs N independent campaigns.

Times the two ways to produce the same per-scenario reports — the
cross-scenario shard-reuse path (:func:`repro.scanners.orchestrator.run_grid_campaign`:
one generation pass per shard, every member transform replayed against it)
against one full streamed campaign per member.  The outputs are byte-identical
(tests/test_scenario_grid.py pins it); this module only compares wall time
in-process.  The cold-process ratio of the real CLI runs is gated by
``scripts/check_bench_ratios.py``, and ``python3 bench/run.py --workload
grid-whatifs --trace 1`` splits the grid run into layers.

Knobs (environment):
  REPRO_BENCH_GRID_SIZE  population size swept per variant (default 2500)
"""

from __future__ import annotations

import os

import pytest

from repro.scanners import MeasurementCampaign, run_grid_campaign
from repro.scenarios.grid import WHAT_IF_GRID
from repro.webpki.population import PopulationConfig

GRID_BENCH_SIZE = int(os.environ.get("REPRO_BENCH_GRID_SIZE", "2500"))

_CONFIG = PopulationConfig(size=GRID_BENCH_SIZE, seed=2022)


def _run_grid() -> int:
    results = run_grid_campaign(
        WHAT_IF_GRID, config=_CONFIG, scan_backend="columnar"
    )
    return sum(r.scan.quic_count for r in results.values())


def _run_independent() -> int:
    quic = 0
    for scenario in WHAT_IF_GRID:
        results = MeasurementCampaign(
            population_config=scenario.population_config(base=_CONFIG),
            stream=True,
            scan_backend="columnar",
        ).run()
        quic += results.scan.quic_count
    return quic


@pytest.mark.benchmark(group="scenario-sweep")
def test_bench_grid_sweep(benchmark):
    benchmark.pedantic(_run_grid, rounds=1, iterations=1)


@pytest.mark.benchmark(group="scenario-sweep")
def test_bench_independent_campaigns(benchmark):
    benchmark.pedantic(_run_independent, rounds=1, iterations=1)
