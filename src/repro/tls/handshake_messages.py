"""TLS 1.3 handshake messages carried inside QUIC CRYPTO frames.

Each message knows how to compute its wire encoding (4-byte handshake header
plus body).  The bodies are realistic: ClientHello carries the usual browser
extension set, the Certificate message carries the actual DER chain, and the
CertificateVerify size depends on the server's key algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from ..caching import cached_property  # lock-free (see repro.caching)
from typing import Optional, Sequence, Tuple

from ..x509.chain import CertificateChain
from ..x509.keys import KeyAlgorithm
from .cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    chain_compression,
    chain_payload,
)
from .cipher_suites import CipherSuite
from .extensions import (
    AlpnExtension,
    CompressCertificateExtension,
    KeyShareExtension,
    QuicTransportParametersExtension,
    ServerNameExtension,
    SignatureAlgorithmsExtension,
    SupportedGroupsExtension,
    SupportedVersionsExtension,
    TlsExtension,
)


class HandshakeType(IntEnum):
    """TLS 1.3 HandshakeType values (RFC 8446 §4, RFC 8879 §4)."""

    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    ENCRYPTED_EXTENSIONS = 8
    CERTIFICATE = 11
    CERTIFICATE_VERIFY = 15
    FINISHED = 20
    COMPRESSED_CERTIFICATE = 25


def _handshake_frame(message_type: HandshakeType, body: bytes) -> bytes:
    return bytes([message_type]) + len(body).to_bytes(3, "big") + body


@dataclass(frozen=True)
class HandshakeMessage:
    """Base class: concrete messages provide ``message_type`` and ``body()``.

    Messages are immutable, so the wire encoding (and therefore the size) is
    computed once and cached on the instance.
    """

    def encode(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return _handshake_frame(self.message_type, self.body())

    @cached_property
    def size(self) -> int:
        return len(self._encoded)


@dataclass(frozen=True)
class ClientHello(HandshakeMessage):
    """A browser-like ClientHello offering TLS 1.3 over QUIC."""

    server_name: str
    cipher_suites: Tuple[CipherSuite, ...] = CipherSuite.default_client_offer()
    compression_algorithms: Tuple[CertificateCompressionAlgorithm, ...] = ()
    transport_parameters: bytes = bytes(80)
    alpn: Tuple[str, ...] = ("h3",)
    extra_extensions: Tuple[TlsExtension, ...] = ()

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.CLIENT_HELLO

    def extensions(self) -> Tuple[TlsExtension, ...]:
        extensions = [
            ServerNameExtension(self.server_name),
            SupportedVersionsExtension(client=True),
            SupportedGroupsExtension(),
            SignatureAlgorithmsExtension(),
            KeyShareExtension(client=True),
            AlpnExtension(self.alpn),
            QuicTransportParametersExtension(self.transport_parameters),
        ]
        if self.compression_algorithms:
            extensions.append(CompressCertificateExtension(self.compression_algorithms))
        extensions.extend(self.extra_extensions)
        return tuple(extensions)

    @property
    def offers_compression(self) -> bool:
        return bool(self.compression_algorithms)

    def body(self) -> bytes:
        legacy_version = b"\x03\x03"
        random = bytes(32)
        legacy_session_id = b"\x00"
        suites = b"".join(suite.encode() for suite in self.cipher_suites)
        cipher_block = len(suites).to_bytes(2, "big") + suites
        legacy_compression = b"\x01\x00"
        extensions = b"".join(ext.encode() for ext in self.extensions())
        extension_block = len(extensions).to_bytes(2, "big") + extensions
        return (
            legacy_version
            + random
            + legacy_session_id
            + cipher_block
            + legacy_compression
            + extension_block
        )


@dataclass(frozen=True)
class ServerHello(HandshakeMessage):
    """ServerHello: fixed-size apart from the key share group."""

    cipher_suite: CipherSuite = CipherSuite.TLS_AES_128_GCM_SHA256
    key_share_length: int = 32

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.SERVER_HELLO

    def body(self) -> bytes:
        legacy_version = b"\x03\x03"
        random = bytes(32)
        legacy_session_id = b"\x00"
        suite = self.cipher_suite.encode()
        legacy_compression = b"\x00"
        extensions = (
            SupportedVersionsExtension(client=False).encode()
            + KeyShareExtension(client=False, key_length=self.key_share_length).encode()
        )
        return (
            legacy_version
            + random
            + legacy_session_id
            + suite
            + legacy_compression
            + len(extensions).to_bytes(2, "big")
            + extensions
        )


@dataclass(frozen=True)
class EncryptedExtensions(HandshakeMessage):
    """EncryptedExtensions with ALPN and QUIC transport parameters."""

    transport_parameters: bytes = bytes(90)
    alpn: Tuple[str, ...] = ("h3",)

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.ENCRYPTED_EXTENSIONS

    def body(self) -> bytes:
        extensions = (
            AlpnExtension(self.alpn).encode()
            + QuicTransportParametersExtension(self.transport_parameters).encode()
        )
        return len(extensions).to_bytes(2, "big") + extensions


@dataclass(frozen=True)
class CertificateMessage(HandshakeMessage):
    """The (uncompressed) Certificate message carrying the full chain."""

    chain: CertificateChain

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.CERTIFICATE

    def body(self) -> bytes:
        certificate_request_context = b"\x00"
        return certificate_request_context + chain_payload(cert.der for cert in self.chain)


@dataclass(frozen=True)
class CompressedCertificateMessage(HandshakeMessage):
    """RFC 8879 CompressedCertificate wrapping the Certificate message."""

    chain: CertificateChain
    algorithm: CertificateCompressionAlgorithm

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.COMPRESSED_CERTIFICATE

    def compression_result(self) -> CompressionResult:
        return self._compression_result

    @cached_property
    def _compression_result(self) -> CompressionResult:
        return chain_compression(self.chain, self.algorithm)

    def body(self) -> bytes:
        result = self.compression_result()
        inner = CertificateMessage(self.chain).body()
        return (
            int(self.algorithm.code).to_bytes(2, "big")
            + len(inner).to_bytes(3, "big")  # uncompressed_length
            + bytes(result.compressed_size)  # compressed_certificate_message placeholder bytes
        )


@dataclass(frozen=True)
class CertificateVerify(HandshakeMessage):
    """CertificateVerify; the signature size follows the server key algorithm."""

    key_algorithm: KeyAlgorithm

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.CERTIFICATE_VERIFY

    def body(self) -> bytes:
        if self.key_algorithm.is_rsa:
            signature_length = self.key_algorithm.bits // 8  # RSA-PSS
        elif self.key_algorithm is KeyAlgorithm.ECDSA_P384:
            signature_length = 103
        else:
            signature_length = 71
        scheme = b"\x08\x04" if self.key_algorithm.is_rsa else b"\x04\x03"
        return scheme + signature_length.to_bytes(2, "big") + bytes(signature_length)


@dataclass(frozen=True)
class Finished(HandshakeMessage):
    """Finished message; verify_data length follows the negotiated hash."""

    cipher_suite: CipherSuite = CipherSuite.TLS_AES_128_GCM_SHA256

    @property
    def message_type(self) -> HandshakeType:
        return HandshakeType.FINISHED

    def body(self) -> bytes:
        return bytes(self.cipher_suite.finished_size)


@dataclass(frozen=True)
class ServerFirstFlight:
    """The TLS messages a server sends in its first flight.

    ``initial_messages`` travel in QUIC Initial packets (ServerHello), the
    rest in QUIC Handshake packets.  The split matters because the paper's
    padding/coalescence findings are about how these bytes map onto datagrams.
    """

    server_hello: ServerHello
    encrypted_extensions: EncryptedExtensions
    certificate: HandshakeMessage
    certificate_verify: CertificateVerify
    finished: Finished
    compression: Optional[CertificateCompressionAlgorithm] = None

    @property
    def initial_crypto_size(self) -> int:
        """CRYPTO bytes carried at the Initial encryption level."""
        return self.server_hello.size

    @property
    def handshake_crypto_size(self) -> int:
        """CRYPTO bytes carried at the Handshake encryption level."""
        return (
            self.encrypted_extensions.size
            + self.certificate.size
            + self.certificate_verify.size
            + self.finished.size
        )

    @property
    def total_crypto_size(self) -> int:
        return self.initial_crypto_size + self.handshake_crypto_size


def build_server_first_flight(
    chain: CertificateChain,
    client_hello: Optional[ClientHello] = None,
    server_compression_algorithms: Sequence[CertificateCompressionAlgorithm] = (),
    cipher_suite: CipherSuite = CipherSuite.TLS_AES_128_GCM_SHA256,
) -> ServerFirstFlight:
    """Assemble the server's first TLS flight for a given certificate chain.

    Compression is applied only when both the client offered it and the server
    supports one of the offered algorithms (RFC 8879 §4), mirroring the
    deployment conditions analysed in the paper.
    """
    negotiated: Optional[CertificateCompressionAlgorithm] = None
    if client_hello is not None and client_hello.offers_compression:
        for algorithm in client_hello.compression_algorithms:
            if algorithm in server_compression_algorithms:
                negotiated = algorithm
                break

    certificate: HandshakeMessage
    if negotiated is not None:
        certificate = CompressedCertificateMessage(chain, negotiated)
    else:
        certificate = CertificateMessage(chain)

    return ServerFirstFlight(
        server_hello=ServerHello(cipher_suite=cipher_suite),
        encrypted_extensions=EncryptedExtensions(),
        certificate=certificate,
        certificate_verify=CertificateVerify(chain.leaf.key_algorithm),
        finished=Finished(cipher_suite),
        compression=negotiated,
    )
