"""End-to-end QUIC handshake simulation and classification.

This module glues the client and server engines together and produces the
observable quantities the paper's scanners record:

* the handshake class (1-RTT, RETRY, Multi-RTT, Amplification) per §3.2,
* the amplification factor of the first RTT (Figure 4),
* the split of received bytes into TLS payload and QUIC overhead (Figure 5).

Total bytes a server emits towards a spoofed, never-responding client
(Figures 9 and 11, §4.3) come from
:meth:`~repro.quic.server.QuicServer.unvalidated_transmission_schedule`,
which the fabric's probe (:meth:`~repro.netsim.network.UdpNetwork.probe_unvalidated`)
sends through.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..tls.handshake_messages import ClientHello
from ..x509.chain import CertificateChain
from .anti_amplification import ANTI_AMPLIFICATION_FACTOR
from .client import QuicClientConfig, build_client_initial_datagram, build_client_second_flight
from .profiles import ServerBehaviorProfile
from .server import FlightPlanCache, QuicServer, ServerFlightPlan


class HandshakeClass(Enum):
    """The four handshake groups of the paper's §3.2 plus an unreachable bucket."""

    ONE_RTT = "1-RTT"
    RETRY = "RETRY"
    MULTI_RTT = "Multi-RTT"
    AMPLIFICATION = "Amplification"
    UNREACHABLE = "Unreachable"


@dataclass(frozen=True)
class HandshakeTrace:
    """Byte-level record of one simulated handshake."""

    domain: str
    client_initial_size: int
    server_profile: str
    plan: ServerFlightPlan
    client_bytes_sent: int
    compression_negotiated: Optional[CertificateCompressionAlgorithm]

    @property
    def server_bytes_first_rtt(self) -> int:
        retry = self.plan.retry_datagram.size if self.plan.retry_datagram else 0
        return retry + self.plan.first_rtt_bytes

    @property
    def server_bytes_total(self) -> int:
        return self.plan.total_bytes

    @property
    def first_rtt_amplification(self) -> float:
        """UDP payload received during the first RTT divided by bytes sent."""
        return self.server_bytes_first_rtt / self.client_initial_size

    @property
    def amplification_limit_bytes(self) -> int:
        return ANTI_AMPLIFICATION_FACTOR * self.client_initial_size

    @property
    def exceeds_amplification_limit(self) -> bool:
        return self.server_bytes_first_rtt > self.amplification_limit_bytes

    @property
    def tls_payload_bytes(self) -> int:
        return self.plan.tls_bytes_total

    @property
    def quic_overhead_bytes(self) -> int:
        return max(self.server_bytes_total - self.tls_payload_bytes, 0)

    @property
    def round_trips(self) -> int:
        """Round trips until the handshake can complete."""
        rtts = 1
        if self.plan.uses_retry:
            rtts += 1
        if self.plan.requires_additional_rtt:
            rtts += 1
        return rtts


@dataclass(frozen=True)
class HandshakeOutcome:
    """A classified handshake, the unit the analysis layer aggregates."""

    trace: HandshakeTrace
    handshake_class: HandshakeClass


def classify(trace: HandshakeTrace) -> HandshakeClass:
    """Assign a handshake to one of the paper's four groups.

    Precedence follows §3.2: Retry handshakes are their own group regardless
    of byte counts; handshakes that need extra round trips are Multi-RTT; a
    handshake that finishes in one round trip is Amplification when the
    server's first-RTT bytes exceed 3× the client Initial, and 1-RTT otherwise.
    """
    if trace.plan.uses_retry:
        return HandshakeClass.RETRY
    if trace.plan.requires_additional_rtt:
        return HandshakeClass.MULTI_RTT
    if trace.exceeds_amplification_limit:
        return HandshakeClass.AMPLIFICATION
    return HandshakeClass.ONE_RTT


def simulate_handshake(
    domain: str,
    chain: CertificateChain,
    profile: ServerBehaviorProfile,
    client: Optional[QuicClientConfig] = None,
    flight_cache: Optional[FlightPlanCache] = None,
) -> HandshakeOutcome:
    """Simulate a complete handshake (client responds and validates its address).

    ``flight_cache`` overrides the process-wide flight-plan cache; sharded
    campaign workers pass their own so per-shard cache counters stay
    independent of how shards are spread over processes.
    """
    (outcome,) = simulate_handshakes(
        domain, chain, profile, (client or QuicClientConfig(),), flight_cache=flight_cache
    )
    return outcome


def simulate_handshakes(
    domain: str,
    chain: CertificateChain,
    profile: ServerBehaviorProfile,
    clients: Sequence[QuicClientConfig],
    flight_cache: Optional[FlightPlanCache] = None,
) -> List[HandshakeOutcome]:
    """One complete handshake per client configuration against one server.

    The outcomes equal :func:`simulate_handshake` once per client, in order.
    The clients must make one RFC 8879 offer: the ClientHello, the server
    and its flight-cache lookup are then shared, and each client costs its
    own Initial, a fresh anti-amplification budget and a classification.
    The flight cache still counts one lookup per server response.
    """
    if not clients:
        return []
    offer = clients[0].compression_algorithms
    if any(client.compression_algorithms != offer for client in clients):
        raise ValueError("every client of one simulated server must make the same RFC 8879 offer")
    client_hello = ClientHello(server_name=domain, compression_algorithms=offer)
    server = QuicServer(domain, chain, profile, flight_cache=flight_cache)
    outcomes: List[HandshakeOutcome] = []
    for client in clients:
        initial = build_client_initial_datagram(domain, client)
        plan = server.respond_to_initial(client_hello, client_initial_size=initial.size)
        if plan.uses_retry:
            # The client retries with the token; the rebuilt Initial is the
            # same size (the token replaces padding bytes).
            validated = server.respond_to_initial(
                client_hello, client_initial_size=initial.size, client_sent_retry_token=True
            )
            plan = ServerFlightPlan(
                retry_datagram=plan.retry_datagram,
                first_rtt_datagrams=validated.first_rtt_datagrams,
                deferred_datagrams=validated.deferred_datagrams,
                tls_flight=validated.tls_flight,
                tracker=validated.tracker,
            )
        second_flight = build_client_second_flight(domain, client)
        trace = HandshakeTrace(
            domain=domain,
            client_initial_size=initial.size,
            server_profile=profile.name,
            plan=plan,
            client_bytes_sent=initial.size + sum(d.size for d in second_flight),
            compression_negotiated=plan.tls_flight.compression,
        )
        outcomes.append(HandshakeOutcome(trace=trace, handshake_class=classify(trace)))
    return outcomes
