"""Network telescope collecting QUIC backscatter.

A telescope announces otherwise-unused address space and records packets
arriving there.  Because nothing in that space ever sends traffic, every
arriving QUIC packet is a response to a *spoofed* request — which is exactly
how the paper observes server behaviour towards unvalidated clients (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from .address import IPv4Address


@dataclass(frozen=True)
class BackscatterPacket:
    """One server-to-victim datagram observed at the telescope."""

    server_address: IPv4Address
    victim_address: IPv4Address
    domain: str
    source_connection_id: str
    size: int
    timestamp: float


@dataclass(frozen=True)
class BackscatterSession:
    """All backscatter sharing one source connection ID (one spoofed handshake)."""

    source_connection_id: str
    domain: str
    server_address: IPv4Address
    total_bytes: int
    packet_count: int
    first_seen: float
    last_seen: float

    @property
    def duration_seconds(self) -> float:
        return self.last_seen - self.first_seen

    def amplification_factor(self, assumed_initial_size: int = 1362) -> float:
        """Amplification relative to an assumed client Initial (paper Figure 9)."""
        return self.total_bytes / assumed_initial_size


class Telescope:
    """Accumulates backscatter packets and aggregates them into sessions."""

    def __init__(self, name: str = "telescope") -> None:
        self.name = name
        self._packets: List[BackscatterPacket] = []

    def observe(self, packet: BackscatterPacket) -> None:
        self._packets.append(packet)

    def sessions(self) -> List[BackscatterSession]:
        """Group observed packets by source connection ID."""
        grouped: Dict[str, List[BackscatterPacket]] = {}
        for packet in self._packets:
            grouped.setdefault(packet.source_connection_id, []).append(packet)
        sessions = []
        for scid, packets in grouped.items():
            sessions.append(
                BackscatterSession(
                    source_connection_id=scid,
                    domain=packets[0].domain,
                    server_address=packets[0].server_address,
                    total_bytes=sum(p.size for p in packets),
                    packet_count=len(packets),
                    first_seen=min(p.timestamp for p in packets),
                    last_seen=max(p.timestamp for p in packets),
                )
            )
        return sessions
