"""QUIC v1 transport substrate (RFC 9000, RFC 9001, RFC 9002 §6.2.2.1).

This package implements the parts of QUIC that the paper's measurements hinge
on:

* wire encodings: variable-length integers, long-header packets (Initial,
  Handshake, Retry), the frames that appear during the handshake (CRYPTO, ACK,
  PADDING, PING, CONNECTION_CLOSE),
* packet coalescing into UDP datagrams,
* the 3× anti-amplification limit and its server-side accounting,
* retransmission of Initial/Handshake data before address validation,
* a client and a server handshake engine, where the server's behaviour is
  configurable through :class:`~repro.quic.profiles.ServerBehaviorProfile` so
  that RFC-compliant stacks, Cloudflare-like stacks (no coalescence, padded
  ACK datagrams excluded from the limit check) and mvfst-like stacks
  (unbounded retransmission towards unvalidated clients) can all be exercised.
"""

from .varint import encode_varint, decode_varint, varint_size, VarintError
from .connection_id import ConnectionId
from .frames import (
    Frame,
    FrameType,
    PaddingFrame,
    PingFrame,
    AckFrame,
    CryptoFrame,
    ConnectionCloseFrame,
)
from .packet import (
    PacketType,
    QuicPacket,
    InitialPacket,
    HandshakePacket,
    RetryPacket,
    OneRttPacket,
    MIN_CLIENT_INITIAL_SIZE,
    AEAD_TAG_SIZE,
)
from .coalescing import UdpDatagram, split_into_datagrams
from .transport_params import TransportParameters
from .anti_amplification import AmplificationTracker, ANTI_AMPLIFICATION_FACTOR
from .profiles import ServerBehaviorProfile, CoalescenceMode, BUILTIN_PROFILES
from .client import QuicClientConfig, build_client_initial_datagram
from .server import QuicServer, ServerFlightPlan
from .handshake import (
    HandshakeOutcome,
    HandshakeTrace,
    HandshakeClass,
    simulate_handshake,
    simulate_handshakes,
)

__all__ = [
    "encode_varint",
    "decode_varint",
    "varint_size",
    "VarintError",
    "ConnectionId",
    "Frame",
    "FrameType",
    "PaddingFrame",
    "PingFrame",
    "AckFrame",
    "CryptoFrame",
    "ConnectionCloseFrame",
    "PacketType",
    "QuicPacket",
    "InitialPacket",
    "HandshakePacket",
    "RetryPacket",
    "OneRttPacket",
    "MIN_CLIENT_INITIAL_SIZE",
    "AEAD_TAG_SIZE",
    "UdpDatagram",
    "split_into_datagrams",
    "TransportParameters",
    "AmplificationTracker",
    "ANTI_AMPLIFICATION_FACTOR",
    "ServerBehaviorProfile",
    "CoalescenceMode",
    "BUILTIN_PROFILES",
    "QuicClientConfig",
    "build_client_initial_datagram",
    "QuicServer",
    "ServerFlightPlan",
    "HandshakeOutcome",
    "HandshakeTrace",
    "HandshakeClass",
    "simulate_handshake",
    "simulate_handshakes",
]
