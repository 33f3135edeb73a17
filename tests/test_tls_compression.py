"""Unit tests for RFC 8879 certificate compression."""

import pytest

from repro.tls.cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    chain_payload,
    compress_certificate_chain,
)


class TestAlgorithmRegistry:
    def test_code_points_match_rfc8879(self):
        assert CertificateCompressionAlgorithm.ZLIB.code == 1
        assert CertificateCompressionAlgorithm.BROTLI.code == 2
        assert CertificateCompressionAlgorithm.ZSTD.code == 3

    def test_from_code_roundtrip(self):
        for algorithm in CertificateCompressionAlgorithm:
            assert CertificateCompressionAlgorithm.from_code(algorithm.code) is algorithm

    def test_from_unknown_code(self):
        with pytest.raises(ValueError):
            CertificateCompressionAlgorithm.from_code(99)


class TestChainPayload:
    def test_framing_overhead_per_certificate(self, cloudflare_chain):
        ders = [c.der for c in cloudflare_chain]
        payload = chain_payload(ders)
        # 3-byte list length + per-entry 3-byte length and 2-byte extensions.
        assert len(payload) == sum(len(d) for d in ders) + 3 + 5 * len(ders)

    def test_empty_chain_payload(self):
        assert chain_payload([]) == b"\x00\x00\x00"


class TestCompression:
    def test_compression_reduces_size(self, lets_encrypt_long_chain):
        result = compress_certificate_chain([c.der for c in lets_encrypt_long_chain])
        assert result.compressed_size < result.uncompressed_size

    def test_ratio_matches_paper_band(self, small_population):
        """Mean compression rate over many chains lands near the paper's 65-75 %."""
        chains = [
            d.delivered_chain
            for d in small_population.quic_services()[:150]
            if d.delivered_chain is not None
        ]
        ratios = [
            compress_certificate_chain([c.der for c in chain]).ratio for chain in chains
        ]
        mean_ratio = sum(ratios) / len(ratios)
        assert 0.55 <= mean_ratio <= 0.85

    def test_brotli_beats_plain_zlib_model(self, cloudflare_chain):
        ders = [c.der for c in cloudflare_chain]
        zlib_result = compress_certificate_chain(ders, CertificateCompressionAlgorithm.ZLIB)
        brotli_result = compress_certificate_chain(ders, CertificateCompressionAlgorithm.BROTLI)
        zstd_result = compress_certificate_chain(ders, CertificateCompressionAlgorithm.ZSTD)
        assert zlib_result.uncompressed_size == brotli_result.uncompressed_size
        # Calibrated ordering: zlib <= brotli <= zstd output sizes.
        assert zlib_result.compressed_size <= brotli_result.compressed_size <= zstd_result.compressed_size

    def test_ratio_of_empty_payload(self):
        result = CompressionResult(CertificateCompressionAlgorithm.ZLIB, 0, 0)
        assert result.ratio == 0.0
