"""Packet coalescing into UDP datagrams (RFC 9000 §12.2).

A sender may place several QUIC packets with different encryption levels into
one UDP datagram.  Whether a server does this is central to the paper: missing
coalescence forces separate datagrams whose Initial packets each need padding,
which wastes anti-amplification budget (the Cloudflare finding, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..caching import cached_property  # lock-free (see repro.caching)
from typing import Iterable, List, Tuple

from .packet import PacketType, QuicPacket


@dataclass(frozen=True)
class UdpDatagram:
    """One UDP datagram carrying one or more coalesced QUIC packets.

    Datagrams are immutable, so the per-datagram aggregates are computed once
    and cached on the instance.
    """

    packets: Tuple[QuicPacket, ...]

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("a datagram must carry at least one packet")

    @cached_property
    def size(self) -> int:
        """UDP payload size in bytes."""
        return sum(packet.size for packet in self.packets)

    @cached_property
    def padding_bytes(self) -> int:
        return sum(packet.padding_bytes for packet in self.packets)

    @cached_property
    def contains_initial(self) -> bool:
        return any(p.packet_type is PacketType.INITIAL for p in self.packets)

    @cached_property
    def is_ack_eliciting(self) -> bool:
        return any(p.is_ack_eliciting for p in self.packets)

    def encode(self) -> bytes:
        return b"".join(packet.encode() for packet in self.packets)


def split_into_datagrams(
    packets: Iterable[QuicPacket],
    mtu: int = 1472,
    coalescing_enabled: bool = True,
) -> List[UdpDatagram]:
    """Greedily pack packets into datagrams no larger than ``mtu``.

    With ``coalescing_enabled=False`` every packet travels in its own datagram,
    reproducing the behaviour of server stacks without coalescing support.
    """
    datagrams: List[UdpDatagram] = []
    current: List[QuicPacket] = []
    current_size = 0
    for packet in packets:
        if packet.size > mtu:
            raise ValueError(f"single packet of {packet.size} bytes exceeds MTU {mtu}")
        if not coalescing_enabled:
            datagrams.append(UdpDatagram((packet,)))
            continue
        if current and current_size + packet.size > mtu:
            datagrams.append(UdpDatagram(tuple(current)))
            current = []
            current_size = 0
        current.append(packet)
        current_size += packet.size
    if current:
        datagrams.append(UdpDatagram(tuple(current)))
    return datagrams
