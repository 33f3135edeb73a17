"""TLS extensions relevant to the QUIC handshake.

Only the wire framing (2-byte type, 2-byte length, body) and the bodies that
influence sizes or behaviour are modelled:

* ``server_name`` (SNI) — size scales with the domain name,
* ``supported_versions``, ``key_share``, ``signature_algorithms``,
  ``supported_groups``, ``application_layer_protocol_negotiation`` — fixed or
  near-fixed sizes,
* ``quic_transport_parameters`` — carried for QUIC,
* ``compress_certificate`` (RFC 8879) — the extension the paper's Table 1 and
  §4.2 revolve around.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence, Tuple

from .cert_compression import CertificateCompressionAlgorithm


class ExtensionType(IntEnum):
    """IANA TLS ExtensionType values used in this project."""

    SERVER_NAME = 0
    SUPPORTED_GROUPS = 10
    SIGNATURE_ALGORITHMS = 13
    APPLICATION_LAYER_PROTOCOL_NEGOTIATION = 16
    COMPRESS_CERTIFICATE = 27
    SUPPORTED_VERSIONS = 43
    PSK_KEY_EXCHANGE_MODES = 45
    KEY_SHARE = 51
    QUIC_TRANSPORT_PARAMETERS = 57


@dataclass(frozen=True)
class TlsExtension:
    """A generic extension with opaque body bytes."""

    extension_type: int
    body: bytes

    def encode(self) -> bytes:
        return (
            int(self.extension_type).to_bytes(2, "big")
            + len(self.body).to_bytes(2, "big")
            + self.body
        )


def ServerNameExtension(host_name: str) -> TlsExtension:
    """server_name (RFC 6066): list of one host_name entry."""
    name_bytes = host_name.encode("ascii")
    entry = b"\x00" + len(name_bytes).to_bytes(2, "big") + name_bytes
    body = len(entry).to_bytes(2, "big") + entry
    return TlsExtension(ExtensionType.SERVER_NAME, body)


def SupportedVersionsExtension(client: bool = True) -> TlsExtension:
    if client:
        body = b"\x02\x03\x04"  # list: TLS 1.3
    else:
        body = b"\x03\x04"  # selected version
    return TlsExtension(ExtensionType.SUPPORTED_VERSIONS, body)


def SupportedGroupsExtension() -> TlsExtension:
    groups = (0x001D, 0x0017, 0x0018)  # x25519, secp256r1, secp384r1
    encoded = b"".join(g.to_bytes(2, "big") for g in groups)
    return TlsExtension(ExtensionType.SUPPORTED_GROUPS, len(encoded).to_bytes(2, "big") + encoded)


def SignatureAlgorithmsExtension() -> TlsExtension:
    schemes = (0x0403, 0x0503, 0x0804, 0x0805, 0x0401, 0x0501)
    encoded = b"".join(s.to_bytes(2, "big") for s in schemes)
    return TlsExtension(ExtensionType.SIGNATURE_ALGORITHMS, len(encoded).to_bytes(2, "big") + encoded)


def KeyShareExtension(client: bool = True, group: int = 0x001D, key_length: int = 32) -> TlsExtension:
    entry = group.to_bytes(2, "big") + key_length.to_bytes(2, "big") + bytes(key_length)
    if client:
        body = len(entry).to_bytes(2, "big") + entry
    else:
        body = entry
    return TlsExtension(ExtensionType.KEY_SHARE, body)


def AlpnExtension(protocols: Sequence[str] = ("h3",)) -> TlsExtension:
    encoded = b"".join(len(p).to_bytes(1, "big") + p.encode("ascii") for p in protocols)
    return TlsExtension(
        ExtensionType.APPLICATION_LAYER_PROTOCOL_NEGOTIATION,
        len(encoded).to_bytes(2, "big") + encoded,
    )


def QuicTransportParametersExtension(encoded_parameters: bytes) -> TlsExtension:
    return TlsExtension(ExtensionType.QUIC_TRANSPORT_PARAMETERS, encoded_parameters)


def CompressCertificateExtension(
    algorithms: Sequence[CertificateCompressionAlgorithm],
) -> TlsExtension:
    """compress_certificate (RFC 8879 §3): list of supported algorithm codes."""
    encoded = b"".join(int(alg.code).to_bytes(2, "big") for alg in algorithms)
    body = len(encoded).to_bytes(1, "big") + encoded
    return TlsExtension(ExtensionType.COMPRESS_CERTIFICATE, body)


def parse_compress_certificate(extension: TlsExtension) -> Tuple[CertificateCompressionAlgorithm, ...]:
    """Parse the algorithm list out of a compress_certificate extension."""
    if extension.extension_type != ExtensionType.COMPRESS_CERTIFICATE:
        raise ValueError("not a compress_certificate extension")
    body = extension.body
    if not body:
        return ()
    length = body[0]
    codes = body[1 : 1 + length]
    algorithms = []
    for index in range(0, len(codes) - 1, 2):
        code = int.from_bytes(codes[index : index + 2], "big")
        algorithms.append(CertificateCompressionAlgorithm.from_code(code))
    return tuple(algorithms)
