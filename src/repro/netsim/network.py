"""A simulated UDP fabric hosting QUIC services.

The fabric maps IPv4 addresses to QUIC service hosts and delivers client
datagrams to them.  It supports source-address spoofing: when a spoofed source
falls into a prefix monitored by a :class:`~repro.netsim.telescope.Telescope`,
the server's response datagrams are recorded there as backscatter — the same
observation channel the paper used (§3.2, "incomplete handshakes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..quic.client import QuicClientConfig, build_client_initial_datagram
from ..quic.profiles import ServerBehaviorProfile
from ..quic.server import FlightPlanCache, QuicServer
from ..tls.handshake_messages import ClientHello
from ..x509.chain import CertificateChain
from .address import IPv4Address, IPv4Prefix
from .telescope import BackscatterPacket, Telescope


@dataclass
class QuicServiceHost:
    """A QUIC service bound to an IP address.

    ``encapsulation_overhead`` models load-balancer tunnelling: the extra
    header bytes added when forwarding a datagram to a backend.  When a client
    Initial plus the overhead no longer fits the path MTU, the datagram is
    dropped and the service appears unreachable — the effect the paper sees
    for large Initials at top-ranked domains (§4.1).
    """

    address: IPv4Address
    domain: str
    chain: CertificateChain
    profile: ServerBehaviorProfile
    encapsulation_overhead: int = 0
    path_mtu: int = 1500
    udp_ip_header_bytes: int = 28
    #: Flight-plan cache the host's server uses; ``None`` means the
    #: process-wide shared cache.  Deterministic runners (the sharded
    #: campaign) inject their own so cache counters don't depend on what else
    #: the process has simulated.
    flight_cache: Optional[FlightPlanCache] = None

    def max_acceptable_initial(self) -> int:
        return self.path_mtu - self.udp_ip_header_bytes - self.encapsulation_overhead

    def accepts_initial(self, initial_size: int) -> bool:
        return initial_size <= self.max_acceptable_initial()

    def server(self) -> QuicServer:
        return QuicServer(self.domain, self.chain, self.profile, flight_cache=self.flight_cache)


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of sending one client Initial into the fabric."""

    responded: bool
    bytes_returned: int = 0
    used_retry: bool = False


class UdpNetwork:
    """Registry of QUIC service hosts plus telescopes observing dark space."""

    def __init__(self, flight_cache: Optional[FlightPlanCache] = None) -> None:
        self._hosts: Dict[int, QuicServiceHost] = {}
        self._hosts_by_domain: Dict[str, QuicServiceHost] = {}
        self._telescopes: List[Tuple[IPv4Prefix, Telescope]] = []
        self._flight_cache = flight_cache

    # -- topology --------------------------------------------------------------

    def attach_host(self, host: QuicServiceHost) -> None:
        if host.flight_cache is None and self._flight_cache is not None:
            host.flight_cache = self._flight_cache
        self._hosts[host.address.value] = host
        self._hosts_by_domain[host.domain.lower()] = host

    def attach_telescope(self, prefix: IPv4Prefix, telescope: Telescope) -> None:
        self._telescopes.append((prefix, telescope))

    def host_at(self, address: IPv4Address) -> Optional[QuicServiceHost]:
        return self._hosts.get(address.value)

    def host_for_domain(self, domain: str) -> Optional[QuicServiceHost]:
        return self._hosts_by_domain.get(domain.lower())

    def hosts_in_prefix(self, prefix: IPv4Prefix) -> List[QuicServiceHost]:
        return [host for host in self._hosts.values() if prefix.contains(host.address)]

    # -- traffic ---------------------------------------------------------------

    def probe_unvalidated(
        self,
        destination: IPv4Address,
        client: Optional[QuicClientConfig] = None,
        spoofed_source: Optional[IPv4Address] = None,
        timestamp: float = 0.0,
    ) -> DeliveryResult:
        """Send one client Initial and never acknowledge the response.

        When ``spoofed_source`` lies inside a telescope prefix, the server's
        response bytes are recorded there as backscatter.
        """
        host = self.host_at(destination)
        client = client or QuicClientConfig(initial_datagram_size=1252)
        if host is None:
            return DeliveryResult(responded=False)
        if not host.accepts_initial(client.initial_datagram_size):
            return DeliveryResult(responded=False)
        client_hello = ClientHello(
            server_name=host.domain, compression_algorithms=client.compression_algorithms
        )
        initial = build_client_initial_datagram(host.domain, client)
        _, schedule = host.server().unvalidated_transmission_schedule(
            client_hello, client_initial_size=initial.size
        )
        total_bytes = sum(size for _, size in schedule)
        used_retry = host.profile.retry_policy.value == "always"
        self._record_backscatter(host, spoofed_source, schedule, timestamp)
        return DeliveryResult(responded=True, bytes_returned=total_bytes, used_retry=used_retry)

    def _record_backscatter(
        self,
        host: QuicServiceHost,
        spoofed_source: Optional[IPv4Address],
        schedule: List[Tuple[float, int]],
        timestamp: float,
    ) -> None:
        if spoofed_source is None or not schedule:
            return
        for prefix, telescope in self._telescopes:
            if not prefix.contains(spoofed_source):
                continue
            for offset, size in schedule:
                telescope.observe(
                    BackscatterPacket(
                        server_address=host.address,
                        victim_address=spoofed_source,
                        domain=host.domain,
                        source_connection_id=f"scid:server:{host.domain}:{spoofed_source}",
                        size=size,
                        timestamp=timestamp + offset,
                    )
                )
