"""QUIC server handshake engine.

Given a certificate chain, a client Initial and a
:class:`~repro.quic.profiles.ServerBehaviorProfile`, the server builds its
first flight (ACK, ServerHello, EncryptedExtensions, Certificate,
CertificateVerify, Finished), maps it onto UDP datagrams according to the
profile's coalescing behaviour, and applies the profile's anti-amplification
accounting to decide how much of the flight leaves before the client's address
is validated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..tls.handshake_messages import ClientHello, ServerFirstFlight, build_server_first_flight
from ..x509.chain import CertificateChain
from .anti_amplification import AmplificationTracker
from .coalescing import UdpDatagram, split_into_datagrams
from .connection_id import ConnectionId
from .frames import AckFrame, CryptoFrame
from .packet import (
    AEAD_TAG_SIZE,
    MIN_CLIENT_INITIAL_SIZE,
    HandshakePacket,
    InitialPacket,
    PacketType,
    QuicPacket,
    RetryPacket,
)
from .profiles import CoalescenceMode, RetryPolicy, ServerBehaviorProfile
from ..caching import cached_property  # lock-free (see repro.caching)


@dataclass(frozen=True)
class FlightCacheInfo:
    """Counters of a :class:`FlightPlanCache`, ``functools.lru_cache`` style."""

    hits: int
    misses: int
    currsize: int
    maxsize: int


class FlightPlanCache:
    """LRU memo of built server first flights.

    Building a flight is the expensive part of a handshake simulation: the TLS
    messages (including a real DEFLATE pass for RFC 8879 compression), the
    packetisation and the datagram padding.  All of it is a pure function of
    ``(domain, behavior profile, chain fingerprint, client compression offer)``
    — the client's Initial size only moves the first-RTT/deferred split, which
    is recomputed per call so one cached flight serves every Initial size of
    the sweep.  The domain is part of the key because connection IDs (and the
    Retry token) are derived from it, keeping cached plans byte-identical to
    freshly built ones.

    The default bound is sized for the reuse pattern, not the population: the
    Initial-size sweep revisits a sampled working set (2,000 targets by
    default), so a few thousand resident flights capture all the locality
    while keeping worst-case memory in the tens of MB even for million-domain
    campaigns (entries are multi-KB flight plans).
    """

    def __init__(self, maxsize: int = 8_192) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, Tuple[ServerFirstFlight, Tuple[UdpDatagram, ...]]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0

    def get_or_build(
        self,
        key: tuple,
        build: Callable[[], Tuple[ServerFirstFlight, Tuple[UdpDatagram, ...]]],
    ) -> Tuple[ServerFirstFlight, Tuple[UdpDatagram, ...]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return entry
        self._misses += 1
        entry = build()
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def cache_info(self) -> FlightCacheInfo:
        return FlightCacheInfo(
            hits=self._hits,
            misses=self._misses,
            currsize=len(self._entries),
            maxsize=self.maxsize,
        )


#: Process-wide cache shared by all :class:`QuicServer` instances (servers are
#: created per simulated handshake, so the cache must outlive them).
_SHARED_FLIGHT_CACHE = FlightPlanCache()


def flight_plan_cache_info() -> FlightCacheInfo:
    """Counters of the shared flight-plan cache."""
    return _SHARED_FLIGHT_CACHE.cache_info()


@dataclass(frozen=True)
class ServerFlightPlan:
    """Everything the server would transmit, split around address validation."""

    #: A Retry datagram, if the profile demands address validation first.
    retry_datagram: Optional[UdpDatagram]
    #: Datagrams sent in the first RTT (before the client's address is validated).
    first_rtt_datagrams: Tuple[UdpDatagram, ...]
    #: Datagrams that had to wait for address validation (second RTT).
    deferred_datagrams: Tuple[UdpDatagram, ...]
    #: The TLS flight the datagrams carry.
    tls_flight: ServerFirstFlight
    #: The tracker after the first RTT, using the profile's own accounting.
    tracker: AmplificationTracker

    # -- byte accounting -------------------------------------------------------

    @cached_property
    def first_rtt_bytes(self) -> int:
        return sum(d.size for d in self.first_rtt_datagrams)

    @cached_property
    def deferred_bytes(self) -> int:
        return sum(d.size for d in self.deferred_datagrams)

    @property
    def total_bytes(self) -> int:
        retry = self.retry_datagram.size if self.retry_datagram else 0
        return retry + self.first_rtt_bytes + self.deferred_bytes

    @property
    def padding_bytes_first_rtt(self) -> int:
        return sum(d.padding_bytes for d in self.first_rtt_datagrams)

    @property
    def tls_bytes_total(self) -> int:
        return self.tls_flight.total_crypto_size

    @property
    def requires_additional_rtt(self) -> bool:
        return bool(self.deferred_datagrams)

    @property
    def uses_retry(self) -> bool:
        return self.retry_datagram is not None


class QuicServer:
    """A QUIC server for one service (one certificate chain, one profile)."""

    def __init__(
        self,
        domain: str,
        chain: CertificateChain,
        profile: ServerBehaviorProfile,
        flight_cache: Optional[FlightPlanCache] = None,
    ) -> None:
        self.domain = domain
        self.chain = chain
        self.profile = profile
        self._scid = ConnectionId.generate(f"scid:server:{domain}", 8)
        self._flight_cache = _SHARED_FLIGHT_CACHE if flight_cache is None else flight_cache

    # -- public API ------------------------------------------------------------

    def respond_to_initial(
        self,
        client_hello: ClientHello,
        client_initial_size: int,
        client_sent_retry_token: bool = False,
    ) -> ServerFlightPlan:
        """Build the server's response to a client Initial datagram.

        ``client_initial_size`` is the UDP payload size of the client's first
        datagram: it seeds the anti-amplification budget.  When the profile
        requires Retry and the client has not echoed a token yet, the response
        is just the Retry packet.
        """
        tracker = AmplificationTracker(
            exclude_padding=not self.profile.count_padding_against_limit,
            ignore_limit=not self.profile.enforce_amplification_limit,
        )
        tracker.on_datagram_received(client_initial_size)

        if self.profile.retry_policy is RetryPolicy.ALWAYS and not client_sent_retry_token:
            retry = self.retry_datagram
            tracker.on_datagram_sent(retry.size)
            flight, _ = self._cached_flight(client_hello)
            return ServerFlightPlan(
                retry_datagram=retry,
                first_rtt_datagrams=(),
                deferred_datagrams=(),
                tls_flight=flight,
                tracker=tracker,
            )
        if client_sent_retry_token:
            # A valid Retry token validates the address immediately.
            tracker.on_address_validated()

        flight, datagrams = self._cached_flight(client_hello)
        first_rtt, deferred = self._apply_amplification_limit(datagrams, tracker)
        return ServerFlightPlan(
            retry_datagram=None,
            first_rtt_datagrams=tuple(first_rtt),
            deferred_datagrams=tuple(deferred),
            tls_flight=flight,
            tracker=tracker,
        )

    def unvalidated_transmission_schedule(
        self,
        client_hello: ClientHello,
        client_initial_size: int,
        probe_timeout_base_s: float = 1.0,
    ) -> Tuple[ServerFlightPlan, List[Tuple[float, int]]]:
        """Per-datagram timeline of bytes sent to a silent, unvalidated client.

        Returns the first-flight plan plus a list of ``(time_offset_seconds,
        datagram_size)`` entries: the first flight at t=0 and each
        retransmission round after an exponentially backed-off probe timeout,
        mirroring RFC 9002 loss recovery.  Telescopes use the timeline to
        reconstruct backscatter sessions.
        """
        plan = self.respond_to_initial(client_hello, client_initial_size)
        tracker = plan.tracker
        schedule: List[Tuple[float, int]] = []
        if plan.retry_datagram is not None:
            schedule.append((0.0, plan.retry_datagram.size))
        for datagram in plan.first_rtt_datagrams:
            schedule.append((0.0, datagram.size))
        retransmittable = [d for d in plan.first_rtt_datagrams if d.is_ack_eliciting]
        for round_index in range(self.profile.unvalidated_retransmission_rounds):
            offset = probe_timeout_base_s * ((2 ** (round_index + 1)) - 1)
            for datagram in retransmittable:
                if (
                    self.profile.enforce_limit_on_retransmissions
                    and not tracker.can_send(datagram.size)
                ):
                    continue
                padding_only = datagram.padding_bytes > 0 and not datagram.is_ack_eliciting
                tracker.on_datagram_sent(datagram.size, padding_only=padding_only)
                schedule.append((offset, datagram.size))
        return plan, schedule

    # -- internals --------------------------------------------------------------

    def _cached_flight(
        self, client_hello: ClientHello
    ) -> Tuple[ServerFirstFlight, Tuple[UdpDatagram, ...]]:
        """The TLS flight and padded datagrams, memoized in the flight cache.

        The returned objects are immutable and shared between plans; per-call
        state (the amplification tracker and the first-RTT/deferred split) is
        always computed fresh.
        """
        key = (
            self.domain,
            self.profile,
            self.chain.fingerprint,
            client_hello.compression_algorithms,
        )

        def build() -> Tuple[ServerFirstFlight, Tuple[UdpDatagram, ...]]:
            flight = build_server_first_flight(
                self.chain,
                client_hello,
                server_compression_algorithms=self.profile.compression_algorithms,
            )
            return flight, tuple(self._build_datagrams(client_hello, flight))

        return self._flight_cache.get_or_build(key, build)

    @cached_property
    def retry_datagram(self) -> UdpDatagram:
        """The Retry this server answers an unvalidated Initial with."""
        token = b"retry-token:" + self.domain.encode("ascii")[:32]
        packet = RetryPacket(
            destination_cid=ConnectionId.generate(f"scid:client:{self.domain}", 8),
            source_cid=self._scid,
            token=token,
        )
        return UdpDatagram((packet,))

    def _client_dcid(self) -> ConnectionId:
        return ConnectionId.generate(f"scid:client:{self.domain}", 8)

    def _build_packets(self, flight: ServerFirstFlight) -> Tuple[List[QuicPacket], List[QuicPacket]]:
        """Build Initial-level and Handshake-level packets for the flight."""
        dcid = self._client_dcid()
        initial_packets: List[QuicPacket] = []
        handshake_packets: List[QuicPacket] = []

        server_hello_frame = CryptoFrame(offset=0, data=flight.server_hello.encode())
        if self.profile.coalescence is CoalescenceMode.SPLIT_INITIAL_ACK:
            # Datagram 1: Initial carrying only the ACK.  Datagram 2: Initial
            # carrying the ServerHello.  Both will be padded at datagram level.
            initial_packets.append(
                InitialPacket(dcid, self._scid, packet_number=0, frames=(AckFrame(0),))
            )
            initial_packets.append(
                InitialPacket(dcid, self._scid, packet_number=1, frames=(server_hello_frame,))
            )
        else:
            initial_packets.append(
                InitialPacket(
                    dcid, self._scid, packet_number=0, frames=(AckFrame(0), server_hello_frame)
                )
            )

        handshake_stream = (
            flight.encrypted_extensions.encode()
            + flight.certificate.encode()
            + flight.certificate_verify.encode()
            + flight.finished.encode()
        )
        # Leave room for header (~30 bytes) and AEAD tag in each Handshake packet.
        per_packet_overhead = 40 + AEAD_TAG_SIZE
        full_chunk = self.profile.mtu - per_packet_overhead
        chunks: List[bytes] = []
        if self.profile.coalescence is CoalescenceMode.FULL:
            # A coalescing server fills the datagram that carries the Initial
            # with Handshake data instead of padding it: size the first chunk
            # to the space remaining next to the Initial packet.
            space_next_to_initial = self.profile.mtu - initial_packets[-1].size - per_packet_overhead
            if space_next_to_initial > 64:
                first = handshake_stream[:space_next_to_initial]
                if first:
                    chunks.append(first)
                handshake_stream = handshake_stream[len(first):]
        offset = 0
        while handshake_stream:
            chunks.append(handshake_stream[:full_chunk])
            handshake_stream = handshake_stream[full_chunk:]
        if not chunks:
            chunks.append(b"")
        for index, chunk in enumerate(chunks):
            handshake_packets.append(
                HandshakePacket(
                    dcid, self._scid, packet_number=index,
                    frames=(CryptoFrame(offset=offset, data=chunk),),
                )
            )
            offset += len(chunk)
        return initial_packets, handshake_packets

    def _build_datagrams(
        self, client_hello: ClientHello, flight: ServerFirstFlight
    ) -> List[UdpDatagram]:
        initial_packets, handshake_packets = self._build_packets(flight)

        if self.profile.coalescence is CoalescenceMode.FULL:
            datagrams = split_into_datagrams(
                initial_packets + handshake_packets, mtu=self.profile.mtu, coalescing_enabled=True
            )
        else:
            datagrams = split_into_datagrams(
                initial_packets + handshake_packets, mtu=self.profile.mtu, coalescing_enabled=False
            )

        padded: List[UdpDatagram] = []
        for datagram in datagrams:
            padded.append(self._pad_datagram(datagram))
        return padded

    def _pad_datagram(self, datagram: UdpDatagram) -> UdpDatagram:
        """Pad datagrams containing Initial packets to the minimum size.

        RFC 9000 §14.1 requires padding for datagrams with ack-eliciting
        Initial packets; profiles with ``pad_all_initial_datagrams`` pad every
        Initial datagram (the superfluous padding the paper measured).
        """
        if not datagram.contains_initial or datagram.size >= MIN_CLIENT_INITIAL_SIZE:
            return datagram
        must_pad = datagram.is_ack_eliciting or self.profile.pad_all_initial_datagrams
        if not must_pad:
            return datagram
        deficit = MIN_CLIENT_INITIAL_SIZE - datagram.size
        packets = list(datagram.packets)
        packets[-1] = packets[-1].with_padding_to(packets[-1].size + deficit)
        return UdpDatagram(tuple(packets))

    def _apply_amplification_limit(
        self, datagrams: Sequence[UdpDatagram], tracker: AmplificationTracker
    ) -> Tuple[List[UdpDatagram], List[UdpDatagram]]:
        """Send datagrams in order until the profile's own accounting blocks."""
        first_rtt: List[UdpDatagram] = []
        deferred: List[UdpDatagram] = []
        blocked = False
        for datagram in datagrams:
            padding_only = not datagram.is_ack_eliciting and datagram.padding_bytes > 0
            allowed = tracker.can_send(datagram.size) or (
                not tracker.address_validated
                and not self.profile.enforce_amplification_limit
            )
            if not blocked and (allowed or self._counts_as_free(datagram, padding_only)):
                tracker.on_datagram_sent(datagram.size, padding_only=padding_only)
                first_rtt.append(datagram)
            else:
                blocked = True
                deferred.append(datagram)
        return first_rtt, deferred

    def _counts_as_free(self, datagram: UdpDatagram, padding_only: bool) -> bool:
        """Cloudflare-style accounting: padding-only datagrams bypass the check."""
        return not self.profile.count_padding_against_limit and padding_only
