"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper from a
single shared measurement campaign (built once per benchmark session).  The
population size is chosen so the whole harness completes in well under a
minute while keeping every distribution statistically meaningful.
"""

from __future__ import annotations

import os

import pytest

from repro.scanners.orchestrator import CampaignResults, MeasurementCampaign
from repro.scanners.streaming import ReducedScanResults
from repro.webpki.population import InternetPopulation, PopulationConfig, generate_population

#: Population size used by the benchmark harness.  Overridable so CI smoke
#: jobs can run the full harness on a small campaign.
BENCH_POPULATION_SIZE = int(os.environ.get("REPRO_BENCH_POPULATION_SIZE", "2500"))

#: Sweep sample size of the shared campaign fixture (small-campaign knob).
BENCH_SWEEP_SAMPLES = int(os.environ.get("REPRO_BENCH_SWEEP_SAMPLES", "250"))


@pytest.fixture(scope="session")
def population() -> InternetPopulation:
    return generate_population(PopulationConfig(size=BENCH_POPULATION_SIZE, seed=2022))


@pytest.fixture(scope="session")
def campaign_results(population: InternetPopulation) -> CampaignResults:
    campaign = MeasurementCampaign(
        population=population,
        run_sweep=True,
        sweep_sample_size=BENCH_SWEEP_SAMPLES,
        spoofed_targets_per_provider=40,
    )
    return campaign.run()


@pytest.fixture(scope="session")
def reduced_scan(campaign_results: CampaignResults) -> ReducedScanResults:
    """The shared campaign in the reduced contract the figure benchmarks time."""
    return campaign_results.reduced.scan
