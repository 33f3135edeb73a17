"""The certificate ↔ handshake interplay model.

The paper's central observation is that, for compliant servers, the handshake
outcome is determined by simple arithmetic: the server's first flight (mainly
the certificate chain) either fits into 3× the client Initial or it does not.
This module turns that arithmetic into a reusable prediction API:

* :func:`server_flight_size` estimates the TLS first-flight size for a chain,
* :func:`predict_handshake` predicts the handshake class without running the
  full simulator,
* :func:`required_initial_size` computes the smallest client Initial that
  achieves a 1-RTT handshake for a given chain — the quantity a client-side
  cache (§5 guidance) would store per server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..quic.handshake import HandshakeClass
from ..quic.packet import AEAD_TAG_SIZE
from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..tls.handshake_messages import build_server_first_flight, ClientHello
from ..x509.chain import CertificateChain
from .limits import ANTI_AMPLIFICATION_FACTOR, MAX_INITIAL_SIZE_AT_MTU_1500, MIN_INITIAL_SIZE

#: Per-packet QUIC overhead (long header ≈ 26–40 bytes plus the AEAD tag).
_PER_PACKET_OVERHEAD = 40 + AEAD_TAG_SIZE
#: Typical number of packets a coalescing server needs for its first flight.
_TYPICAL_FIRST_FLIGHT_PACKETS = 3


@dataclass(frozen=True)
class HandshakePrediction:
    """Prediction of the handshake outcome for one (chain, Initial size) pair."""

    chain_size: int
    tls_flight_size: int
    estimated_first_flight_bytes: int
    client_initial_size: int
    amplification_budget: int
    predicted_class: HandshakeClass
    compression: Optional[CertificateCompressionAlgorithm] = None


def server_flight_size(
    chain: CertificateChain,
    compression: Optional[CertificateCompressionAlgorithm] = None,
) -> int:
    """TLS bytes of the server's first flight for ``chain``.

    With ``compression`` set, the Certificate message is replaced by the
    RFC 8879 CompressedCertificate equivalent.
    """
    client_hello = ClientHello(
        server_name=chain.leaf.subject_common_name or "example.org",
        compression_algorithms=(compression,) if compression else (),
    )
    flight = build_server_first_flight(
        chain,
        client_hello,
        server_compression_algorithms=(compression,) if compression else (),
    )
    return flight.total_crypto_size


def _estimated_wire_bytes(tls_flight_size: int) -> int:
    """TLS flight plus QUIC packetisation overhead for a coalescing server."""
    packets = max(_TYPICAL_FIRST_FLIGHT_PACKETS, math.ceil(tls_flight_size / 1400))
    return tls_flight_size + packets * _PER_PACKET_OVERHEAD


def predict_handshake(
    chain: CertificateChain,
    client_initial_size: int,
    compression: Optional[CertificateCompressionAlgorithm] = None,
    server_is_compliant: bool = True,
) -> HandshakePrediction:
    """Predict the handshake class from the chain and the client Initial size.

    A compliant server defers data beyond the budget (Multi-RTT); a
    non-compliant one sends everything (Amplification when it overflows).
    """
    if client_initial_size < MIN_INITIAL_SIZE:
        raise ValueError(f"client Initials must be at least {MIN_INITIAL_SIZE} bytes")
    tls_flight = server_flight_size(chain, compression)
    wire_bytes = _estimated_wire_bytes(tls_flight)
    budget = ANTI_AMPLIFICATION_FACTOR * client_initial_size
    if wire_bytes <= budget:
        predicted = HandshakeClass.ONE_RTT
    elif server_is_compliant:
        predicted = HandshakeClass.MULTI_RTT
    else:
        predicted = HandshakeClass.AMPLIFICATION
    return HandshakePrediction(
        chain_size=chain.total_size,
        tls_flight_size=tls_flight,
        estimated_first_flight_bytes=wire_bytes,
        client_initial_size=client_initial_size,
        amplification_budget=budget,
        predicted_class=predicted,
        compression=compression,
    )


def required_initial_size(
    chain: CertificateChain,
    compression: Optional[CertificateCompressionAlgorithm] = None,
    mtu_limit: int = MAX_INITIAL_SIZE_AT_MTU_1500,
) -> Optional[int]:
    """Smallest client Initial size that yields a 1-RTT handshake, if any.

    Returns ``None`` when even an MTU-sized Initial cannot accommodate the
    server's flight — the case where only certificate changes or compression
    can restore 1-RTT handshakes.
    """
    wire_bytes = _estimated_wire_bytes(server_flight_size(chain, compression))
    needed = math.ceil(wire_bytes / ANTI_AMPLIFICATION_FACTOR)
    needed = max(needed, MIN_INITIAL_SIZE)
    if needed > mtu_limit:
        return None
    return needed
