"""Shared fixtures.

Expensive objects (the CA hierarchy, a synthetic population, a full campaign
run) are built once per session and shared; they are deterministic, so sharing
them does not couple tests.
"""

from __future__ import annotations

import pytest

from repro.quic.client import QuicClientConfig
from repro.scanners.orchestrator import CampaignResults, MeasurementCampaign
from repro.scanners.streaming import ReducedScanResults
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


@pytest.fixture(scope="session")
def campaign_results(small_population: InternetPopulation) -> CampaignResults:
    """A full campaign over the small population, with a sampled sweep."""
    campaign = MeasurementCampaign(
        population=small_population,
        run_sweep=True,
        sweep_sample_size=120,
        spoofed_targets_per_provider=25,
    )
    return campaign.run()


@pytest.fixture(scope="session")
def reduced_scan(campaign_results: CampaignResults) -> ReducedScanResults:
    """The campaign's stages 1–4 in the reduced contract every figure reads."""
    return campaign_results.reduced.scan


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
