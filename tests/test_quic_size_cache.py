"""Tests for the size-memoization layer and the server flight-plan cache.

The wire-model sizes are observable paper quantities, so the arithmetic
(cached) sizes must equal the encoded lengths exactly, and a cached
:class:`ServerFlightPlan` must be byte-for-byte what a fresh build produces.
"""

from __future__ import annotations

import random

import pytest

from repro.quic.client import QuicClientConfig, build_client_initial_datagram
from repro.quic.coalescing import UdpDatagram
from repro.quic.connection_id import ConnectionId
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    PaddingFrame,
    PingFrame,
)
from repro.quic.packet import (
    AEAD_TAG_SIZE,
    HandshakePacket,
    InitialPacket,
    OneRttPacket,
    QuicPacket,
    RetryPacket,
)
from repro.quic.profiles import BUILTIN_PROFILES
from repro.quic.server import FlightPlanCache, QuicServer
from repro.quic.varint import MAX_VARINT, VarintError, encode_varint, varint_size
from repro.tls.handshake_messages import ClientHello
from repro.webpki.deployment import ServiceCategory


def _random_frame(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return PaddingFrame(rng.randrange(0, 1400))
    if kind == 1:
        return PingFrame()
    if kind == 2:
        return AckFrame(
            largest_acknowledged=rng.randrange(1 << 20),
            ack_delay=rng.randrange(1 << 14),
            first_ack_range=rng.randrange(1 << 8),
        )
    if kind == 3:
        return CryptoFrame(
            offset=rng.randrange(1 << 16), data=rng.randbytes(rng.randrange(0, 1200))
        )
    return ConnectionCloseFrame(
        error_code=rng.randrange(1 << 10),
        frame_type=rng.randrange(64),
        reason="r" * rng.randrange(0, 40),
    )


def _random_packet(rng: random.Random):
    dcid = ConnectionId.generate(f"dcid:{rng.randrange(1 << 30)}", rng.randrange(0, 21))
    scid = ConnectionId.generate(f"scid:{rng.randrange(1 << 30)}", rng.randrange(0, 21))
    frames = tuple(_random_frame(rng) for _ in range(rng.randrange(1, 5)))
    kind = rng.randrange(4)
    if kind == 0:
        token = rng.randbytes(rng.randrange(0, 64))
        return InitialPacket(dcid, scid, rng.randrange(1 << 24), frames, token=token)
    if kind == 1:
        return HandshakePacket(dcid, scid, rng.randrange(1 << 24), frames)
    if kind == 2:
        return RetryPacket(dcid, scid, token=rng.randbytes(rng.randrange(1, 64)))
    return OneRttPacket(dcid, rng.randrange(1 << 24), frames)


class TestVarintSize:
    @pytest.mark.parametrize(
        "value",
        [0, 1, 63, 64, 255, 16_383, 16_384, (1 << 30) - 1, 1 << 30, MAX_VARINT],
    )
    def test_matches_encoded_length_at_boundaries(self, value):
        assert varint_size(value) == len(encode_varint(value))

    def test_randomized_matches_encoded_length(self):
        rng = random.Random("varint-sizes")
        for _ in range(2000):
            value = rng.randrange(MAX_VARINT + 1)
            assert varint_size(value) == len(encode_varint(value))

    def test_out_of_range_rejected(self):
        with pytest.raises(VarintError):
            varint_size(-1)
        with pytest.raises(VarintError):
            varint_size(MAX_VARINT + 1)


class TestSizesEqualEncodedLength:
    def test_random_frames(self):
        rng = random.Random("frame-sizes")
        for _ in range(500):
            frame = _random_frame(rng)
            assert frame.size == len(frame.encode())

    def test_random_packets(self):
        rng = random.Random("packet-sizes")
        for _ in range(300):
            packet = _random_packet(rng)
            assert packet.size == len(packet.encode())
            assert packet.payload_size == sum(f.size for f in packet.frames)

    def test_random_datagrams(self):
        rng = random.Random("datagram-sizes")
        for _ in range(100):
            packets = tuple(_random_packet(rng) for _ in range(rng.randrange(1, 4)))
            datagram = UdpDatagram(packets)
            assert datagram.size == len(datagram.encode())
            assert datagram.padding_bytes == sum(p.padding_bytes for p in packets)

    def test_padded_client_initials_across_sweep_sizes(self):
        for size in (1200, 1252, 1362, 1472):
            datagram = build_client_initial_datagram(
                "sweep.example", QuicClientConfig(initial_datagram_size=size)
            )
            assert datagram.size == size
            assert len(datagram.encode()) == size


def _fresh_copy(packet):
    """The same packet with no size memo computed yet."""
    return QuicPacket(
        packet.packet_type, packet.destination_cid, packet.source_cid,
        packet.packet_number, packet.frames, packet.token,
    )


def _measured_padding(packet, target):
    """Padding found by building and measuring packets: pad the deficit,
    then trim by the overshoot a grown length varint causes."""
    deficit = target - packet.size
    if deficit <= 0:
        return packet

    def padded_with(padding):
        return QuicPacket(
            packet.packet_type, packet.destination_cid, packet.source_cid,
            packet.packet_number, packet.frames + (PaddingFrame(padding),), packet.token,
        )

    candidate = padded_with(deficit)
    overshoot = candidate.size - target
    if overshoot > 0 and deficit - overshoot > 0:
        candidate = padded_with(deficit - overshoot)
    return candidate


class TestSeededPaddingMemos:
    """``with_padding_to`` seeds the padded copy's size memos arithmetically;
    they must equal what a fresh packet computes from its frames."""

    @staticmethod
    def _assert_seeds_match(packet, target):
        padded = packet.with_padding_to(target)
        fresh = _fresh_copy(padded)
        assert padded.payload_size == fresh.payload_size
        assert padded._header_size == fresh._header_size
        assert padded.size == fresh.size == len(fresh.encode())
        assert padded == _measured_padding(packet, target)

    def test_random_packets_and_targets(self):
        rng = random.Random("padding-seeds")
        for _ in range(300):
            packet = _random_packet(rng)
            self._assert_seeds_match(packet, packet.size + rng.randrange(-8, 1500))

    @pytest.mark.parametrize("length_boundary", [64, 16_384])
    def test_across_length_varint_boundaries(self, length_boundary):
        # The length field covers packet number + payload + AEAD tag; pad
        # every base packet to each target whose length lands near the
        # boundary where the varint grows a byte (63/64, 16383/16384).
        dcid = ConnectionId.generate("dcid:boundary", 8)
        scid = ConnectionId.generate("scid:boundary", 8)
        for packet_number in (0, 300):
            for crypto_len in (0, 5, 30):
                frames = (CryptoFrame(offset=0, data=bytes(crypto_len)),)
                for packet in (
                    InitialPacket(dcid, scid, packet_number, frames, token=b"t" * 3),
                    HandshakePacket(dcid, scid, packet_number, frames),
                    OneRttPacket(dcid, packet_number, frames),
                ):
                    tail = packet.packet_number_length + AEAD_TAG_SIZE
                    fixed = packet.size - packet.payload_size
                    for target in range(
                        fixed + length_boundary - tail - 6, fixed + length_boundary - tail + 6
                    ):
                        self._assert_seeds_match(packet, target)


def _plan_bytes(plan):
    retry = plan.retry_datagram.encode() if plan.retry_datagram else b""
    return (
        retry,
        tuple(d.encode() for d in plan.first_rtt_datagrams),
        tuple(d.encode() for d in plan.deferred_datagrams),
    )


class TestFlightPlanCache:
    @pytest.mark.parametrize(
        "profile", list(BUILTIN_PROFILES.values()), ids=lambda p: p.name
    )
    def test_cached_plan_byte_identical_to_fresh(self, profile, cloudflare_chain):
        hello = ClientHello(server_name="cache.example")
        shared = FlightPlanCache()
        first = QuicServer(
            "cache.example", cloudflare_chain, profile, flight_cache=shared
        ).respond_to_initial(hello, client_initial_size=1362)
        cached = QuicServer(
            "cache.example", cloudflare_chain, profile, flight_cache=shared
        ).respond_to_initial(hello, client_initial_size=1362)
        fresh = QuicServer(
            "cache.example", cloudflare_chain, profile, flight_cache=FlightPlanCache()
        ).respond_to_initial(hello, client_initial_size=1362)

        assert shared.cache_info().hits >= 1
        assert _plan_bytes(first) == _plan_bytes(cached) == _plan_bytes(fresh)
        assert first.total_bytes == cached.total_bytes == fresh.total_bytes
        assert first.tls_flight.total_crypto_size == fresh.tls_flight.total_crypto_size

    def test_tracker_is_fresh_per_plan(self, cloudflare_chain):
        profile = BUILTIN_PROFILES["rfc-compliant"]
        server = QuicServer(
            "tracker.example", cloudflare_chain, profile, flight_cache=FlightPlanCache()
        )
        hello = ClientHello(server_name="tracker.example")
        plan_a = server.respond_to_initial(hello, client_initial_size=1200)
        plan_b = server.respond_to_initial(hello, client_initial_size=1200)
        assert plan_a.tracker is not plan_b.tracker
        plan_a.tracker.on_datagram_sent(10_000)
        assert plan_b.tracker.bytes_sent != plan_a.tracker.bytes_sent

    def test_initial_size_shares_one_cached_flight(self, cloudflare_chain):
        profile = BUILTIN_PROFILES["rfc-compliant"]
        cache = FlightPlanCache()
        hello = ClientHello(server_name="sizes.example")
        for size in (1200, 1250, 1362, 1472):
            QuicServer(
                "sizes.example", cloudflare_chain, profile, flight_cache=cache
            ).respond_to_initial(hello, client_initial_size=size)
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == 3
        assert info.hits / (info.hits + info.misses) == pytest.approx(0.75)

    def test_lru_eviction_bounds_entries(self, cloudflare_chain):
        profile = BUILTIN_PROFILES["rfc-compliant"]
        cache = FlightPlanCache(maxsize=2)
        for index in range(4):
            hello = ClientHello(server_name=f"evict-{index}.example")
            QuicServer(
                f"evict-{index}.example", cloudflare_chain, profile, flight_cache=cache
            ).respond_to_initial(hello, client_initial_size=1200)
        assert cache.cache_info().currsize == 2

    def test_campaign_surfaces_hit_rate(self, campaign_results):
        info = campaign_results.flight_cache
        assert info is not None
        assert info.hits + info.misses > 0
        assert info.hits / (info.hits + info.misses) > 0.8


class TestPopulationCategoryIndex:
    def test_index_matches_full_scan(self, small_population):
        for category in ServiceCategory:
            expected = [
                d for d in small_population.deployments if d.category is category
            ]
            assert small_population.by_category(category) == expected
        assert small_population.quic_services() == small_population.by_category(
            ServiceCategory.QUIC
        )

    def test_category_counts_sum_to_population(self, small_population):
        counts = small_population.category_counts()
        assert sum(counts.values()) == len(small_population.deployments)
