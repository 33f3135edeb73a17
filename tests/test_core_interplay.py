"""Unit tests for the interplay prediction model."""

import pytest

from repro.core import HandshakeClass, predict_handshake, required_initial_size
from repro.core.interplay import server_flight_size
from repro.core.limits import MAX_INITIAL_SIZE_AT_MTU_1500, MIN_INITIAL_SIZE
from repro.quic import QuicClientConfig, simulate_handshake
from repro.quic.profiles import RFC_COMPLIANT
from repro.tls.cert_compression import CertificateCompressionAlgorithm


class TestServerFlightSize:
    def test_flight_larger_than_chain(self, cloudflare_chain):
        assert server_flight_size(cloudflare_chain) > cloudflare_chain.total_size

    def test_compression_shrinks_flight(self, lets_encrypt_long_chain):
        plain = server_flight_size(lets_encrypt_long_chain)
        compressed = server_flight_size(
            lets_encrypt_long_chain, CertificateCompressionAlgorithm.BROTLI
        )
        assert compressed < plain - 500


class TestPredictHandshake:
    def test_small_chain_predicts_one_rtt(self, lets_encrypt_short_chain):
        prediction = predict_handshake(lets_encrypt_short_chain, 1362)
        assert prediction.predicted_class is HandshakeClass.ONE_RTT
        assert prediction.estimated_first_flight_bytes < prediction.amplification_budget

    def test_large_chain_predicts_multi_rtt_for_compliant_server(self, lets_encrypt_long_chain):
        prediction = predict_handshake(lets_encrypt_long_chain, 1362)
        assert prediction.predicted_class is HandshakeClass.MULTI_RTT
        assert prediction.estimated_first_flight_bytes > prediction.amplification_budget

    def test_large_chain_predicts_amplification_for_noncompliant_server(self, lets_encrypt_long_chain):
        prediction = predict_handshake(lets_encrypt_long_chain, 1362, server_is_compliant=False)
        assert prediction.predicted_class is HandshakeClass.AMPLIFICATION

    def test_compression_restores_one_rtt(self, lets_encrypt_long_chain):
        prediction = predict_handshake(
            lets_encrypt_long_chain, 1362, compression=CertificateCompressionAlgorithm.BROTLI
        )
        assert prediction.predicted_class is HandshakeClass.ONE_RTT

    def test_initial_below_minimum_rejected(self, cloudflare_chain):
        with pytest.raises(ValueError):
            predict_handshake(cloudflare_chain, 1100)

    def test_prediction_agrees_with_simulation_for_compliant_servers(self, hierarchy):
        """The arithmetic model and the packet-level simulator must agree."""
        client = QuicClientConfig(initial_datagram_size=1362)
        for label in (
            "Cloudflare ECC CA-3",
            "Let's Encrypt E1 (short)",
            "Let's Encrypt R3 + cross-signed X1",
            "Google 1C3",
            "Sectigo RSA DV / USERTRUST",
            "GlobalSign Atlas R3 DV",
        ):
            chain = hierarchy.profiles[label].issue(f"agree-{label[:4].lower()}.example")
            predicted = predict_handshake(chain, 1362).predicted_class
            simulated = simulate_handshake("a.example", chain, RFC_COMPLIANT, client).handshake_class
            assert predicted is simulated, label


class TestRequiredInitialSize:
    def test_small_chain_needs_only_minimum(self, lets_encrypt_short_chain):
        assert required_initial_size(lets_encrypt_short_chain) == MIN_INITIAL_SIZE

    def test_medium_chain_needs_larger_initial(self, hierarchy):
        chain = hierarchy.profiles["GoDaddy G2"].issue("medium.example")
        needed = required_initial_size(chain)
        assert needed is not None
        assert MIN_INITIAL_SIZE < needed <= MAX_INITIAL_SIZE_AT_MTU_1500

    def test_large_chain_cannot_be_fixed_by_initial_size(self, hierarchy):
        chain = hierarchy.profiles["Amazon RSA 2048 M02 (long)"].issue("huge.example")
        assert required_initial_size(chain) is None

    def test_compression_lowers_required_initial(self, lets_encrypt_long_chain):
        uncompressed = required_initial_size(lets_encrypt_long_chain)
        compressed = required_initial_size(
            lets_encrypt_long_chain, CertificateCompressionAlgorithm.BROTLI
        )
        assert compressed == MIN_INITIAL_SIZE
        assert uncompressed is None or uncompressed > compressed
