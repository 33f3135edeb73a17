"""TLS 1.3 handshake substrate (RFC 8446) as used inside QUIC (RFC 9001).

QUIC carries the TLS 1.3 handshake messages in CRYPTO frames.  For the paper's
questions only the *sizes* and the *split across flights* of those messages
matter, plus the certificate-compression extension (RFC 8879).  This package
builds the handshake messages with realistic encodings so the server's first
flight size — ServerHello + EncryptedExtensions + Certificate +
CertificateVerify + Finished — is computed, not assumed.
"""

from .cipher_suites import CipherSuite
from .extensions import TlsExtension, ExtensionType, CompressCertificateExtension
from .cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    compress_certificate_chain,
)
from .handshake_messages import (
    ClientHello,
    ServerHello,
    EncryptedExtensions,
    CertificateMessage,
    CompressedCertificateMessage,
    CertificateVerify,
    Finished,
    HandshakeType,
    ServerFirstFlight,
    build_server_first_flight,
)

__all__ = [
    "CipherSuite",
    "TlsExtension",
    "ExtensionType",
    "CompressCertificateExtension",
    "CertificateCompressionAlgorithm",
    "CompressionResult",
    "compress_certificate_chain",
    "HandshakeType",
    "ClientHello",
    "ServerHello",
    "EncryptedExtensions",
    "CertificateMessage",
    "CompressedCertificateMessage",
    "CertificateVerify",
    "Finished",
    "ServerFirstFlight",
    "build_server_first_flight",
]
