"""Shared fixtures.

Expensive objects (the CA hierarchy, a synthetic population, a full campaign
run) are built once per session and shared; they are deterministic, so sharing
them does not couple tests.
"""

from __future__ import annotations

import pytest

from repro.quic.client import QuicClientConfig
from repro.scanners.orchestrator import MeasurementCampaign
from repro.scanners.sharding import ShardScanResult, ShardTask, scan_shard, sweep_sample_stride
from repro.scanners.streaming import ReducedCampaignResults, ReducedScanResults
from repro.webpki.population import InternetPopulation, PopulationConfig, generate_population
from repro.x509.ca import WebPkiHierarchy, default_hierarchy


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "memory_budget: slow peak-RSS budget tests (env-gated via "
        "REPRO_MEMORY_BUDGET_TESTS; CI deselects with -m 'not memory_budget')",
    )


@pytest.fixture(scope="session")
def hierarchy() -> WebPkiHierarchy:
    """The (cached, deterministic) Web PKI hierarchy."""
    return default_hierarchy()


@pytest.fixture(scope="session")
def small_population() -> InternetPopulation:
    """A small but statistically meaningful synthetic population."""
    return generate_population(PopulationConfig(size=1500, seed=42))


#: Settings of the shared campaign: a sampled sweep and 25 spoof targets
#: per provider.
SWEEP_SAMPLE_SIZE = 120
SPOOFED_TARGETS_PER_PROVIDER = 25


@pytest.fixture(scope="session")
def campaign_results(small_population: InternetPopulation) -> ReducedCampaignResults:
    """A full campaign over the small population, with a sampled sweep."""
    campaign = MeasurementCampaign(
        population=small_population,
        run_sweep=True,
        sweep_sample_size=SWEEP_SAMPLE_SIZE,
        spoofed_targets_per_provider=SPOOFED_TARGETS_PER_PROVIDER,
    )
    return campaign.run()


@pytest.fixture(scope="session")
def campaign_shard(small_population: InternetPopulation) -> ShardScanResult:
    """The per-observation objects of the shared campaign's stages 1–4: the
    one object shard its serial run scans, with the same sweep sample."""
    deployments = small_population.deployments
    quic_count = len(small_population.quic_services())
    task = ShardTask(
        index=0,
        population_config=small_population.config,
        start=0,
        stop=len(deployments),
        run_sweep=True,
        sweep_local_selection=(0, sweep_sample_stride(quic_count, SWEEP_SAMPLE_SIZE)),
    )
    return scan_shard(task, deployments=deployments)


@pytest.fixture(scope="session")
def reduced_scan(campaign_results: ReducedCampaignResults) -> ReducedScanResults:
    """The campaign's stages 1–4 in the reduced contract every figure reads."""
    return campaign_results.scan


@pytest.fixture(scope="session")
def browser_client() -> QuicClientConfig:
    """A Firefox-like client (the 1362-byte analysis size of the paper)."""
    return QuicClientConfig(initial_datagram_size=1362)


@pytest.fixture(scope="session")
def cloudflare_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Cloudflare ECC CA-3"].issue("fixture-cf.example")


@pytest.fixture(scope="session")
def lets_encrypt_long_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("fixture-le.example")


@pytest.fixture(scope="session")
def lets_encrypt_short_chain(hierarchy: WebPkiHierarchy):
    return hierarchy.profiles["Let's Encrypt E1 (short)"].issue("fixture-e1.example")
