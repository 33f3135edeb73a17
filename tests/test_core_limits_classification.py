"""Unit tests for the core limits and the §3.2 classification of handshake traces."""

import pytest

from repro.core import (
    AMPLIFICATION_LIMIT_HISTORY,
    ANTI_AMPLIFICATION_FACTOR,
    BROWSER_PROFILES,
    amplification_limit,
)
from repro.core.limits import COMMON_AMPLIFICATION_LIMITS, LARGER_COMMON_LIMIT, MIN_INITIAL_SIZE
from repro.quic import ConnectionId, HandshakeClass, QuicClientConfig, UdpDatagram
from repro.quic.anti_amplification import AmplificationTracker
from repro.quic.frames import CryptoFrame
from repro.quic.handshake import HandshakeTrace, classify
from repro.quic.packet import InitialPacket, RetryPacket
from repro.quic.server import ServerFlightPlan
from repro.tls.handshake_messages import build_server_first_flight

_DCID = ConnectionId.generate("classification:client", 8)
_SCID = ConnectionId.generate("classification:server", 8)


def _datagram(size):
    """One Initial datagram of exactly ``size`` bytes."""
    packet = InitialPacket(_DCID, _SCID, packet_number=0, frames=(CryptoFrame(offset=0, data=b"x"),))
    datagram = UdpDatagram((packet.with_padding_to(size),))
    assert datagram.size == size
    return datagram


@pytest.fixture(scope="module")
def make_trace(lets_encrypt_short_chain):
    """Build a trace whose first RTT carries exactly the given datagram sizes."""
    flight = build_server_first_flight(lets_encrypt_short_chain)

    def make(initial_size, first_rtt_sizes, deferred_sizes=(), retry=False):
        plan = ServerFlightPlan(
            retry_datagram=UdpDatagram((RetryPacket(_DCID, _SCID, token=b"t"),)) if retry else None,
            first_rtt_datagrams=tuple(_datagram(size) for size in first_rtt_sizes),
            deferred_datagrams=tuple(_datagram(size) for size in deferred_sizes),
            tls_flight=flight,
            tracker=AmplificationTracker(),
        )
        return HandshakeTrace(
            domain="classify.example",
            client_initial_size=initial_size,
            server_profile="unit",
            plan=plan,
            client_bytes_sent=initial_size,
            compression_negotiated=None,
        )

    return make


class TestLimits:
    def test_factor_and_minimum(self):
        assert ANTI_AMPLIFICATION_FACTOR == 3
        assert MIN_INITIAL_SIZE == 1200

    def test_amplification_limit(self):
        assert amplification_limit(1200) == 3600
        assert amplification_limit(1357) == 4071
        with pytest.raises(ValueError):
            amplification_limit(-1)

    def test_common_limits_match_browser_initials(self):
        assert set(COMMON_AMPLIFICATION_LIMITS) == {3750, 4071}
        assert LARGER_COMMON_LIMIT == 4071

    def test_browser_profiles_match_table1(self):
        assert BROWSER_PROFILES["firefox"].initial_size == 1357
        assert BROWSER_PROFILES["chromium"].initial_size == 1250
        assert BROWSER_PROFILES["safari"].initial_size is None
        assert not BROWSER_PROFILES["safari"].supports_quic
        assert BROWSER_PROFILES["firefox"].compression_algorithms == ()

    def test_draft_history_ends_with_rfc9000_byte_limit(self):
        assert len(AMPLIFICATION_LIMIT_HISTORY) == 5
        assert AMPLIFICATION_LIMIT_HISTORY[-1].byte_limited
        assert "three times" in AMPLIFICATION_LIMIT_HISTORY[-1].rule
        assert not AMPLIFICATION_LIMIT_HISTORY[0].byte_limited


class TestClassifyFlight:
    def test_retry_takes_precedence(self, make_trace):
        trace = make_trace(1200, (1400,) * 7, deferred_sizes=(1400,), retry=True)
        assert trace.exceeds_amplification_limit
        assert classify(trace) is HandshakeClass.RETRY

    def test_multi_rtt_when_extra_round_trips(self, make_trace):
        trace = make_trace(1200, (1500, 1500), deferred_sizes=(1300,))
        assert classify(trace) is HandshakeClass.MULTI_RTT

    def test_amplification_when_limit_exceeded_in_one_rtt(self, make_trace):
        trace = make_trace(1200, (1200, 1200, 1201))
        assert trace.server_bytes_first_rtt == 3601
        assert classify(trace) is HandshakeClass.AMPLIFICATION

    def test_one_rtt_when_compliant(self, make_trace):
        trace = make_trace(1200, (1200, 1200, 1200))
        assert trace.server_bytes_first_rtt == 3600
        assert classify(trace) is HandshakeClass.ONE_RTT

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            QuicClientConfig(initial_datagram_size=0)
        with pytest.raises(ValueError):
            amplification_limit(-1200)

    def test_class_properties(self, make_trace):
        amplification = make_trace(1200, (1200, 1200, 1201))
        assert amplification.round_trips == 1
        assert amplification.exceeds_amplification_limit
        multi_rtt = make_trace(1200, (1200, 1200), deferred_sizes=(1200,))
        assert multi_rtt.round_trips == 2
        assert not multi_rtt.exceeds_amplification_limit
        assert make_trace(1200, (1200,), retry=True).round_trips == 2
        assert make_trace(1200, (1200,), deferred_sizes=(1200,), retry=True).round_trips == 3


class TestAmplificationMath:
    def test_factor(self, make_trace):
        trace = make_trace(1362, (1362, 1362, 1362))
        assert trace.server_bytes_first_rtt == 4086
        assert trace.first_rtt_amplification == pytest.approx(3.0)
        retry = make_trace(1362, (1362,), retry=True)
        assert retry.first_rtt_amplification == pytest.approx(
            (retry.plan.retry_datagram.size + 1362) / 1362
        )

    def test_exceeds_limit(self, make_trace):
        assert make_trace(1200, (1200,)).amplification_limit_bytes == 3600
        assert not make_trace(1200, (1200, 1200, 1200)).exceeds_amplification_limit
        assert make_trace(1200, (1200, 1200, 1201)).exceeds_amplification_limit
