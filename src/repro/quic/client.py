"""QUIC client side of the handshake.

The client's contribution to the paper's problem space is small but crucial:
the size of its first Initial datagram sets the server's anti-amplification
budget (3× that size).  Browsers pad their Initials to different sizes
(Table 1: Chromium 1250, Firefox 1357); the measurement sweep varies the size
between 1200 and 1472 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..tls.handshake_messages import ClientHello
from .coalescing import UdpDatagram
from .connection_id import ConnectionId
from .frames import AckFrame, CryptoFrame
from .packet import MIN_CLIENT_INITIAL_SIZE, InitialPacket, HandshakePacket, QuicPacket


@dataclass(frozen=True)
class QuicClientConfig:
    """Client knobs that influence the handshake."""

    initial_datagram_size: int = 1252
    compression_algorithms: Tuple[CertificateCompressionAlgorithm, ...] = ()
    connection_id_length: int = 8
    mtu: int = 1472

    def __post_init__(self) -> None:
        if self.initial_datagram_size < MIN_CLIENT_INITIAL_SIZE:
            raise ValueError(
                f"client Initial datagrams must be at least {MIN_CLIENT_INITIAL_SIZE} bytes "
                f"(got {self.initial_datagram_size})"
            )
        if self.initial_datagram_size > self.mtu:
            raise ValueError(
                f"client Initial of {self.initial_datagram_size} bytes exceeds the MTU ({self.mtu})"
            )


def build_client_initial_datagram(
    domain: str,
    config: QuicClientConfig,
    token: bytes = b"",
    packet_number: int = 0,
) -> UdpDatagram:
    """Build the client's first flight: one Initial padded to the target size.

    Only the padding depends on the Initial size, so the unpadded packet is
    memoized and each size (the Initial-size sweep alone revisits every domain
    dozens of times) costs one arithmetic padding step.
    """
    packet = _unpadded_client_initial(
        domain, config.compression_algorithms, config.connection_id_length, token, packet_number
    )
    padded = packet.with_padding_to(config.initial_datagram_size)
    if padded.size != config.initial_datagram_size and packet.size < config.initial_datagram_size:
        raise AssertionError("padding must reach the configured Initial size exactly")
    return UdpDatagram((padded,))


@lru_cache(maxsize=32_768)
def _unpadded_client_initial(
    domain: str,
    compression_algorithms: Tuple[CertificateCompressionAlgorithm, ...],
    connection_id_length: int,
    token: bytes,
    packet_number: int,
) -> QuicPacket:
    """The client Initial before padding: its ClientHello, connection IDs and
    header are independent of the Initial size."""
    client_hello = ClientHello(server_name=domain, compression_algorithms=compression_algorithms)
    return InitialPacket(
        destination_cid=ConnectionId.generate(f"dcid:{domain}", connection_id_length),
        source_cid=ConnectionId.generate(f"scid:client:{domain}", connection_id_length),
        packet_number=packet_number,
        frames=(CryptoFrame(offset=0, data=client_hello.encode()),),
        token=token,
    )


def build_client_second_flight(
    domain: str,
    config: QuicClientConfig,
    server_initial_packets: int = 1,
    server_handshake_packets: int = 1,
) -> Tuple[UdpDatagram, ...]:
    """Build the client's second flight: Initial ACK plus Handshake ACK/Finished.

    Receiving any of these proves the round trip and validates the client's
    address at the server.  Sizes are small; they only matter for completeness
    of the byte accounting in traces.  Memoized like the first flight.
    """
    # Keyed on the connection-ID length alone: the second flight's content is
    # independent of the Initial size, so the sweep shares one instance.
    return _build_client_second_flight(
        domain, config.connection_id_length, server_initial_packets, server_handshake_packets
    )


@lru_cache(maxsize=32_768)
def _build_client_second_flight(
    domain: str,
    connection_id_length: int,
    server_initial_packets: int,
    server_handshake_packets: int,
) -> Tuple[UdpDatagram, ...]:
    destination = ConnectionId.generate(f"dcid:{domain}", connection_id_length)
    source = ConnectionId.generate(f"scid:client:{domain}", connection_id_length)
    initial_ack = InitialPacket(
        destination_cid=destination,
        source_cid=source,
        packet_number=1,
        frames=(AckFrame(largest_acknowledged=max(server_initial_packets - 1, 0)),),
    )
    finished_data = bytes(36)  # TLS Finished (52 bytes incl. header) approximated by verify_data
    handshake = HandshakePacket(
        destination_cid=destination,
        source_cid=source,
        packet_number=0,
        frames=(
            AckFrame(largest_acknowledged=max(server_handshake_packets - 1, 0)),
            CryptoFrame(offset=0, data=finished_data),
        ),
    )
    padded_initial = initial_ack.with_padding_to(MIN_CLIENT_INITIAL_SIZE)
    return (UdpDatagram((padded_initial,)), UdpDatagram((handshake,)))
