"""Single-Initial prefix prober (ZMap equivalent, §3.2 / §4.3).

The paper's adversary-imitation scan sends one 1252-byte Initial to every host
of a hypergiant /24 prefix and never acknowledges the response, then measures
how many bytes come back.  The three response groups of §4.3 (no service /
≈7 kB / ≈35 kB) and Figure 11's per-host-octet factors come from this scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netsim.address import IPv4Address, IPv4Prefix
from ..netsim.network import UdpNetwork
from ..quic.client import QuicClientConfig


@dataclass(frozen=True)
class ZmapProbeResult:
    """Outcome of probing one address."""

    address: IPv4Address
    responded: bool
    bytes_received: int
    probe_size: int
    domain: Optional[str] = None

    @property
    def host_octet(self) -> int:
        return self.address.host_octet

    @property
    def amplification_factor(self) -> float:
        if self.probe_size == 0:
            return 0.0
        return self.bytes_received / self.probe_size

    def response_group(self, no_service_threshold: int = 150) -> int:
        """The paper's three response groups for the Meta /24 (§4.3).

        1. no response or fewer than ``no_service_threshold`` bytes,
        2. a bounded response (single flight, factor >5×),
        3. a large response (retransmission storm, factor >20×).
        """
        if not self.responded or self.bytes_received <= no_service_threshold:
            return 1
        if self.amplification_factor > 20:
            return 3
        return 2


class ZmapScanner:
    """Probes every host of a prefix with a single unacknowledged Initial."""

    def __init__(self, network: UdpNetwork, probe_size: int = 1252) -> None:
        self._network = network
        self.probe_size = probe_size

    def probe_address(self, address: IPv4Address) -> ZmapProbeResult:
        client = QuicClientConfig(initial_datagram_size=self.probe_size)
        host = self._network.host_at(address)
        delivery = self._network.probe_unvalidated(address, client=client)
        return ZmapProbeResult(
            address=address,
            responded=delivery.responded,
            bytes_received=delivery.bytes_returned,
            probe_size=self.probe_size,
            domain=host.domain if host else None,
        )

    def probe_prefix(self, prefix: IPv4Prefix) -> List[ZmapProbeResult]:
        """Probe all addresses of a prefix (like ``zmap -p 443/udp <prefix>``)."""
        return [self.probe_address(address) for address in prefix.iter_hosts()]
