"""QUIC packet encodings (RFC 9000 §17).

Packets are modelled at byte precision: long header fields, varint lengths,
frame payloads and the 16-byte AEAD expansion are all accounted for, so a
padded client Initial of "1200 bytes" really is 1200 bytes of UDP payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from ..caching import cached_property  # lock-free (see repro.caching)
from typing import Tuple

from .connection_id import ConnectionId
from .frames import Frame, PaddingFrame
from .varint import encode_varint, varint_size

#: QUIC version 1.
QUIC_VERSION_1 = 0x00000001

#: AEAD expansion added to every protected packet (AES-GCM / ChaCha20 tag).
AEAD_TAG_SIZE = 16

#: Minimum UDP payload a client Initial must be padded to (RFC 9000 §14.1).
MIN_CLIENT_INITIAL_SIZE = 1200


class PacketType(Enum):
    """The packet types that occur during connection establishment."""

    INITIAL = "initial"
    HANDSHAKE = "handshake"
    RETRY = "retry"
    ONE_RTT = "1rtt"


@dataclass(frozen=True)
class QuicPacket:
    """A single QUIC packet before coalescing into a UDP datagram."""

    packet_type: PacketType
    destination_cid: ConnectionId
    source_cid: ConnectionId
    packet_number: int
    frames: Tuple[Frame, ...] = ()
    token: bytes = b""

    # -- size computation -----------------------------------------------------
    #
    # Packets are immutable, so every size is computed once and cached on the
    # instance; the arithmetic never builds the encoded byte strings.

    @cached_property
    def payload_size(self) -> int:
        """Sum of encoded frame sizes (before AEAD expansion)."""
        return sum(frame.size for frame in self.frames)

    @property
    def packet_number_length(self) -> int:
        if self.packet_number < 1 << 8:
            return 1
        if self.packet_number < 1 << 16:
            return 2
        if self.packet_number < 1 << 24:
            return 3
        return 4

    @cached_property
    def _header_size(self) -> int:
        if self.packet_type is PacketType.ONE_RTT:
            return 1 + len(self.destination_cid) + self.packet_number_length
        size = 1 + 4  # first byte + version
        size += 1 + len(self.destination_cid)
        size += 1 + len(self.source_cid)
        if self.packet_type is PacketType.INITIAL:
            size += varint_size(len(self.token)) + len(self.token)
        if self.packet_type is PacketType.RETRY:
            # Retry: token + 16-byte integrity tag, no length/packet number.
            return size + len(self.token) + 16
        remaining = self.payload_size + self.packet_number_length + AEAD_TAG_SIZE
        size += varint_size(remaining)
        size += self.packet_number_length
        return size

    @cached_property
    def size(self) -> int:
        """Total encoded packet size including AEAD expansion."""
        if self.packet_type is PacketType.RETRY:
            return self._header_size
        return self._header_size + self.payload_size + AEAD_TAG_SIZE

    @cached_property
    def is_ack_eliciting(self) -> bool:
        return any(frame.is_ack_eliciting for frame in self.frames)

    # -- helpers --------------------------------------------------------------

    def with_padding_to(self, target_size: int) -> "QuicPacket":
        """Return a copy padded (with PADDING frames) up to ``target_size`` bytes.

        Adding padding can grow the length field's varint by a byte; the
        padding amount is reduced accordingly so the result hits the target
        exactly whenever possible.  The amount is found arithmetically and the
        copy's size memos are seeded, so padding builds one packet and never
        re-sums its frames.
        """
        deficit = target_size - self.size
        if deficit <= 0:
            return self
        padding = deficit
        overshoot = self._size_with_payload(self.payload_size + deficit)[1] - target_size
        if overshoot > 0 and deficit - overshoot > 0:
            padding = deficit - overshoot
        padded = QuicPacket(
            packet_type=self.packet_type,
            destination_cid=self.destination_cid,
            source_cid=self.source_cid,
            packet_number=self.packet_number,
            frames=self.frames + (PaddingFrame(padding),),
            token=self.token,
        )
        memo = padded.__dict__
        memo["payload_size"] = payload_size = self.payload_size + padding
        memo["_header_size"], memo["size"] = self._size_with_payload(payload_size)
        return padded

    def _size_with_payload(self, payload_size: int) -> Tuple[int, int]:
        """``(header size, size)`` of this packet if its frames encoded to
        ``payload_size`` bytes: only the long header's length varint depends
        on the payload."""
        header = self._header_size
        if self.packet_type is PacketType.RETRY:
            return header, header
        if self.packet_type is not PacketType.ONE_RTT:
            length_tail = self.packet_number_length + AEAD_TAG_SIZE
            header += varint_size(payload_size + length_tail) - varint_size(
                self.payload_size + length_tail
            )
        return header, header + payload_size + AEAD_TAG_SIZE

    @cached_property
    def padding_bytes(self) -> int:
        return sum(frame.size for frame in self.frames if isinstance(frame, PaddingFrame))

    def encode(self) -> bytes:
        """Produce a byte string of exactly :attr:`size` bytes.

        The content is structurally faithful (header fields, varints, frames)
        but not encrypted; the AEAD tag is emitted as zero bytes.  Analysis
        code only relies on sizes and structured metadata.
        """
        if self.packet_type is PacketType.ONE_RTT:
            header = bytes([0x40]) + self.destination_cid.value
            header += self.packet_number.to_bytes(self.packet_number_length, "big")
        else:
            first = {
                PacketType.INITIAL: 0xC0,
                PacketType.HANDSHAKE: 0xE0,
                PacketType.RETRY: 0xF0,
            }[self.packet_type]
            header = bytes([first]) + QUIC_VERSION_1.to_bytes(4, "big")
            header += bytes([len(self.destination_cid)]) + self.destination_cid.value
            header += bytes([len(self.source_cid)]) + self.source_cid.value
            if self.packet_type is PacketType.INITIAL:
                header += encode_varint(len(self.token)) + self.token
            if self.packet_type is PacketType.RETRY:
                return header + self.token + bytes(16)
            remaining = self.payload_size + self.packet_number_length + AEAD_TAG_SIZE
            header += encode_varint(remaining)
            header += self.packet_number.to_bytes(self.packet_number_length, "big")
        payload = b"".join(frame.encode() for frame in self.frames)
        return header + payload + bytes(AEAD_TAG_SIZE)


def InitialPacket(
    destination_cid: ConnectionId,
    source_cid: ConnectionId,
    packet_number: int,
    frames: Tuple[Frame, ...],
    token: bytes = b"",
) -> QuicPacket:
    return QuicPacket(PacketType.INITIAL, destination_cid, source_cid, packet_number, frames, token)


def HandshakePacket(
    destination_cid: ConnectionId,
    source_cid: ConnectionId,
    packet_number: int,
    frames: Tuple[Frame, ...],
) -> QuicPacket:
    return QuicPacket(PacketType.HANDSHAKE, destination_cid, source_cid, packet_number, frames)


def RetryPacket(
    destination_cid: ConnectionId,
    source_cid: ConnectionId,
    token: bytes,
) -> QuicPacket:
    return QuicPacket(PacketType.RETRY, destination_cid, source_cid, packet_number=0, frames=(), token=token)


def OneRttPacket(
    destination_cid: ConnectionId,
    packet_number: int,
    frames: Tuple[Frame, ...],
) -> QuicPacket:
    return QuicPacket(PacketType.ONE_RTT, destination_cid, ConnectionId.empty(), packet_number, frames)
