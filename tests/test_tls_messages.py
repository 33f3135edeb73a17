"""Unit tests for TLS 1.3 handshake messages and extensions."""

import pytest

from repro.tls import (
    CertificateCompressionAlgorithm,
    CertificateMessage,
    CertificateVerify,
    CipherSuite,
    ClientHello,
    CompressedCertificateMessage,
    EncryptedExtensions,
    Finished,
    HandshakeType,
    ServerHello,
    build_server_first_flight,
)
from repro.tls.extensions import (
    CompressCertificateExtension,
    ExtensionType,
    ServerNameExtension,
    parse_compress_certificate,
)
from repro.x509.keys import KeyAlgorithm


class TestClientHello:
    def test_size_in_browser_range(self):
        hello = ClientHello(server_name="example.org")
        # Unpadded ClientHellos are a few hundred bytes before QUIC padding
        # (ours is lean: no GREASE, no pre-shared-key or padding extensions).
        assert 180 <= hello.size <= 700

    def test_size_grows_with_server_name(self):
        short = ClientHello(server_name="a.io").size
        long = ClientHello(server_name="a-very-long-subdomain.of.some.example.org").size
        assert long > short

    def test_compression_offer_adds_extension(self):
        plain = ClientHello(server_name="x.org")
        offering = ClientHello(
            server_name="x.org",
            compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
        )
        assert offering.offers_compression and not plain.offers_compression
        assert offering.size > plain.size
        types = [e.extension_type for e in offering.extensions()]
        assert ExtensionType.COMPRESS_CERTIFICATE in types

    def test_encoding_starts_with_handshake_type(self):
        hello = ClientHello(server_name="x.org")
        assert hello.encode()[0] == HandshakeType.CLIENT_HELLO

    def test_header_length_matches_body(self):
        hello = ClientHello(server_name="x.org")
        encoded = hello.encode()
        body_length = int.from_bytes(encoded[1:4], "big")
        assert len(encoded) == 4 + body_length


class TestServerMessages:
    def test_server_hello_size(self):
        assert 80 <= ServerHello().size <= 140

    def test_encrypted_extensions_size(self):
        assert 80 <= EncryptedExtensions().size <= 200

    def test_certificate_message_size_tracks_chain(self, cloudflare_chain, lets_encrypt_long_chain):
        small = CertificateMessage(cloudflare_chain)
        large = CertificateMessage(lets_encrypt_long_chain)
        assert small.size > cloudflare_chain.total_size  # framing on top of DER
        assert large.size - small.size == pytest.approx(
            lets_encrypt_long_chain.total_size - cloudflare_chain.total_size, abs=30
        )

    def test_certificate_verify_sizes(self):
        rsa = CertificateVerify(KeyAlgorithm.RSA_2048)
        ecdsa = CertificateVerify(KeyAlgorithm.ECDSA_P256)
        assert rsa.size == pytest.approx(264, abs=8)
        assert ecdsa.size == pytest.approx(79, abs=8)

    def test_finished_size_follows_hash(self):
        assert Finished(CipherSuite.TLS_AES_128_GCM_SHA256).size == 4 + 32
        assert Finished(CipherSuite.TLS_AES_256_GCM_SHA384).size == 4 + 48

    def test_compressed_certificate_smaller_than_plain(self, lets_encrypt_long_chain):
        plain = CertificateMessage(lets_encrypt_long_chain)
        compressed = CompressedCertificateMessage(
            lets_encrypt_long_chain, CertificateCompressionAlgorithm.BROTLI
        )
        assert compressed.size < plain.size
        assert compressed.message_type == HandshakeType.COMPRESSED_CERTIFICATE


class TestServerFirstFlight:
    def test_flight_splits_initial_and_handshake_levels(self, cloudflare_chain):
        flight = build_server_first_flight(cloudflare_chain)
        assert flight.initial_crypto_size == flight.server_hello.size
        assert flight.handshake_crypto_size > cloudflare_chain.total_size
        assert flight.total_crypto_size == flight.initial_crypto_size + flight.handshake_crypto_size

    def test_compression_negotiated_only_when_both_sides_support(self, cloudflare_chain):
        offering = ClientHello(
            server_name="x.org", compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,)
        )
        not_offering = ClientHello(server_name="x.org")

        both = build_server_first_flight(
            cloudflare_chain, offering, (CertificateCompressionAlgorithm.BROTLI,)
        )
        client_only = build_server_first_flight(cloudflare_chain, offering, ())
        server_only = build_server_first_flight(
            cloudflare_chain, not_offering, (CertificateCompressionAlgorithm.BROTLI,)
        )
        assert both.compression is CertificateCompressionAlgorithm.BROTLI
        assert client_only.compression is None
        assert server_only.compression is None
        assert both.total_crypto_size < client_only.total_crypto_size

    def test_first_offered_supported_algorithm_wins(self, cloudflare_chain):
        offering = ClientHello(
            server_name="x.org",
            compression_algorithms=(
                CertificateCompressionAlgorithm.ZSTD,
                CertificateCompressionAlgorithm.BROTLI,
            ),
        )
        flight = build_server_first_flight(
            cloudflare_chain,
            offering,
            (CertificateCompressionAlgorithm.BROTLI, CertificateCompressionAlgorithm.ZSTD),
        )
        assert flight.compression is CertificateCompressionAlgorithm.ZSTD


class TestExtensions:
    def test_extension_wire_format(self):
        extension = ServerNameExtension("example.org")
        encoded = extension.encode()
        assert int.from_bytes(encoded[0:2], "big") == ExtensionType.SERVER_NAME
        assert int.from_bytes(encoded[2:4], "big") == len(extension.body)
        assert 4 + len(extension.body) == len(encoded)

    def test_compress_certificate_roundtrip(self):
        algorithms = (
            CertificateCompressionAlgorithm.BROTLI,
            CertificateCompressionAlgorithm.ZLIB,
        )
        extension = CompressCertificateExtension(algorithms)
        assert parse_compress_certificate(extension) == algorithms

    def test_parse_compress_certificate_rejects_other_types(self):
        with pytest.raises(ValueError):
            parse_compress_certificate(ServerNameExtension("x.org"))

    def test_cipher_suite_codes(self):
        assert CipherSuite.TLS_AES_128_GCM_SHA256.encode() == b"\x13\x01"
        assert len(CipherSuite.default_client_offer()) == 3
