"""Benchmarks of the measurement pipeline itself (not tied to one figure).

These quantify the cost of the main building blocks — certificate issuance,
handshake simulation, the quicreach classifier and the full report — so
regressions in the substrates show up even when the figures stay correct.
"""

import pytest

from repro.analysis.report import build_report
from repro.quic import QuicClientConfig, simulate_handshake
from repro.quic.profiles import RFC_COMPLIANT
from repro.scanners import QuicReach
from repro.webpki import PopulationConfig, generate_population
from repro.webpki.population import build_network_for
from repro.x509.ca import default_hierarchy


def test_bench_certificate_chain_issuance(benchmark):
    hierarchy = default_hierarchy()
    profile = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"]
    counter = iter(range(10**9))

    def issue():
        return profile.issue(f"bench-{next(counter)}.example")

    chain = benchmark(issue)
    assert chain.depth == 3


def test_bench_handshake_simulation(benchmark, campaign_results):
    deployment = campaign_results.quic_deployments()[0]
    client = QuicClientConfig(initial_datagram_size=1362)

    outcome = benchmark(
        simulate_handshake, deployment.domain, deployment.quic_chain,
        deployment.server_behavior, client,
    )
    assert outcome.handshake_class is not None


def test_bench_quicreach_scan_100_services(benchmark, campaign_results):
    network = build_network_for(campaign_results.population.deployments)
    scanner = QuicReach(network)
    targets = [
        (d.domain, d.rank, d.provider) for d in campaign_results.quic_deployments()[:100]
    ]

    observations = benchmark(scanner.scan_many, targets)
    assert len(observations) == len(targets)


def test_bench_population_generation_small(benchmark):
    result = benchmark(generate_population, PopulationConfig(size=300, seed=1))
    assert len(result) == 300


def test_bench_full_report(benchmark, campaign_results):
    report = benchmark(build_report, campaign_results)
    assert "figure06" in report.keys()
