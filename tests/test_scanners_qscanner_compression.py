"""Unit tests for the QScanner-like certificate fetcher and the compression scanner."""

import pytest

from repro.netsim import IPv4Address, QuicServiceHost, UdpNetwork
from repro.quic.profiles import CLOUDFLARE_LIKE, MVFST_LIKE, RFC_COMPLIANT_NO_COMPRESSION
from repro.scanners import CompressionScanner, QScanner
from repro.tls.cert_compression import CertificateCompressionAlgorithm


@pytest.fixture
def network(cloudflare_chain, lets_encrypt_long_chain, lets_encrypt_short_chain):
    network = UdpNetwork()
    network.attach_host(
        QuicServiceHost(IPv4Address.parse("10.2.0.1"), "brotli.example", cloudflare_chain, CLOUDFLARE_LIKE)
    )
    network.attach_host(
        QuicServiceHost(IPv4Address.parse("10.2.0.2"), "all.example", lets_encrypt_long_chain, MVFST_LIKE)
    )
    network.attach_host(
        QuicServiceHost(
            IPv4Address.parse("10.2.0.3"),
            "none.example",
            lets_encrypt_short_chain,
            RFC_COMPLIANT_NO_COMPRESSION,
        )
    )
    return network


class TestQScanner:
    def test_fetch_returns_served_chain(self, network, cloudflare_chain):
        record = QScanner(network).fetch("brotli.example")
        assert record is not None
        assert record.chain is cloudflare_chain
        assert record.chain_size == cloudflare_chain.total_size

    def test_fetch_unknown_domain(self, network):
        assert QScanner(network).fetch("unknown.example") is None

    def test_fetch_many_skips_missing(self, network):
        records = QScanner(network).fetch_many(["brotli.example", "unknown.example", "all.example"])
        assert [r.domain for r in records] == ["brotli.example", "all.example"]

    def test_comparison_with_https_chains(self, network, cloudflare_chain, lets_encrypt_short_chain):
        scanner = QScanner(network)
        records = scanner.fetch_many(["brotli.example", "all.example"])
        https_chains = {
            "brotli.example": cloudflare_chain,        # identical
            "all.example": lets_encrypt_short_chain,   # rotated / different
        }
        comparison = scanner.compare_with_https(records, https_chains)
        assert comparison.total_compared == 2
        assert comparison.identical == 1
        assert comparison.identical_share == pytest.approx(0.5)
        assert comparison.different_share == pytest.approx(0.5)

    def test_comparison_in_campaign_matches_paper(self, campaign_results):
        comparison = campaign_results.shard.comparison
        assert comparison.identical_share == pytest.approx(0.967, abs=0.03)


class TestCompressionScanner:
    def test_supported_algorithms_follow_profile(self, network):
        scanner = CompressionScanner(network)
        brotli_only = scanner.scan("brotli.example")
        all_three = scanner.scan("all.example")
        none = scanner.scan("none.example")
        assert brotli_only.supported_algorithms == (CertificateCompressionAlgorithm.BROTLI,)
        assert all_three.supports_all_three
        assert not none.supports_any

    def test_compression_rate_only_for_supported(self, network):
        scanner = CompressionScanner(network)
        observation = scanner.scan("brotli.example")
        assert observation.compression_rate(CertificateCompressionAlgorithm.BROTLI) > 0.4
        assert observation.compression_rate(CertificateCompressionAlgorithm.ZSTD) is None

    def test_fits_limit(self, network):
        observation = CompressionScanner(network).scan("all.example")
        assert observation.fits_limit(CertificateCompressionAlgorithm.BROTLI, 4071) is True
        assert observation.fits_limit(CertificateCompressionAlgorithm.BROTLI, 10) is False

    def test_unknown_domain(self, network):
        assert CompressionScanner(network).scan("unknown.example") is None

    def test_aggregates(self, network):
        scanner = CompressionScanner(network)
        observations = scanner.scan_many(["brotli.example", "all.example", "none.example"])
        support = CompressionScanner.support_share(observations, CertificateCompressionAlgorithm.BROTLI)
        assert support == pytest.approx(2 / 3)
        rate = CompressionScanner.mean_compression_rate(
            observations, CertificateCompressionAlgorithm.BROTLI
        )
        assert 0.4 < rate < 0.9
        assert CompressionScanner.mean_compression_rate([], CertificateCompressionAlgorithm.ZSTD) is None

    def test_campaign_brotli_support_matches_paper(self, campaign_results):
        observations = campaign_results.shard.compression
        support = CompressionScanner.support_share(
            observations, CertificateCompressionAlgorithm.BROTLI
        )
        assert support == pytest.approx(0.96, abs=0.04)
