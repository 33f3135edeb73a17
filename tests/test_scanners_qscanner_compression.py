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
        assert comparison.different == 1

    def test_comparison_in_campaign_matches_paper(self, campaign_shard):
        comparison = campaign_shard.comparison
        identical_share = comparison.identical / comparison.total_compared
        assert identical_share == pytest.approx(0.967, abs=0.03)


class TestCompressionScanner:
    def test_supported_algorithms_follow_profile(self, network):
        scanner = CompressionScanner(network)
        brotli_only = scanner.scan("brotli.example")
        all_three = scanner.scan("all.example")
        none = scanner.scan("none.example")
        assert brotli_only.supported_algorithms == (CertificateCompressionAlgorithm.BROTLI,)
        assert all_three.supports_all_three
        assert none.supported_algorithms == ()

    def test_compression_rate_only_for_supported(self, network):
        scanner = CompressionScanner(network)
        observation = scanner.scan("brotli.example")
        assert observation.compression_rate(CertificateCompressionAlgorithm.BROTLI) > 0.4
        assert observation.compression_rate(CertificateCompressionAlgorithm.ZSTD) is None

    def test_unknown_domain(self, network):
        assert CompressionScanner(network).scan("unknown.example") is None

    def test_campaign_brotli_support_matches_paper(self, campaign_shard):
        observations = campaign_shard.compression
        brotli = CertificateCompressionAlgorithm.BROTLI
        support = sum(1 for o in observations if o.supports(brotli)) / len(observations)
        assert support == pytest.approx(0.96, abs=0.04)
