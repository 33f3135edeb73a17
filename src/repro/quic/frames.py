"""QUIC frames used during the connection handshake (RFC 9000 §19)."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from ..caching import cached_property  # lock-free (see repro.caching)

from .varint import encode_varint, varint_size


class FrameType(IntEnum):
    """Frame type codes for the frames this project emits."""

    PADDING = 0x00
    PING = 0x01
    ACK = 0x02
    CRYPTO = 0x06
    CONNECTION_CLOSE = 0x1C


@dataclass(frozen=True)
class Frame:
    """Base class; concrete frames implement :meth:`encode`."""

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def _wire_size(self) -> int:
        """Arithmetic wire size; must equal ``len(self.encode())``."""
        return len(self.encode())

    @cached_property
    def size(self) -> int:
        return self._wire_size()

    @property
    def is_ack_eliciting(self) -> bool:
        """PADDING, ACK and CONNECTION_CLOSE are not ack-eliciting (RFC 9002 §2)."""
        return True


@dataclass(frozen=True)
class PaddingFrame(Frame):
    """A run of PADDING frames; each PADDING frame is a single zero byte."""

    length: int = 1

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("padding length must be non-negative")

    def encode(self) -> bytes:
        return bytes(self.length)

    def _wire_size(self) -> int:
        return self.length

    @property
    def is_ack_eliciting(self) -> bool:
        return False


@dataclass(frozen=True)
class PingFrame(Frame):
    def encode(self) -> bytes:
        return bytes([FrameType.PING])

    def _wire_size(self) -> int:
        return 1


@dataclass(frozen=True)
class AckFrame(Frame):
    """An ACK frame acknowledging a single contiguous range starting at 0."""

    largest_acknowledged: int = 0
    ack_delay: int = 0
    first_ack_range: int = 0

    def encode(self) -> bytes:
        return (
            bytes([FrameType.ACK])
            + encode_varint(self.largest_acknowledged)
            + encode_varint(self.ack_delay)
            + encode_varint(0)  # ack range count
            + encode_varint(self.first_ack_range)
        )

    def _wire_size(self) -> int:
        return (
            1
            + varint_size(self.largest_acknowledged)
            + varint_size(self.ack_delay)
            + 1  # ack range count (always zero here)
            + varint_size(self.first_ack_range)
        )

    @property
    def is_ack_eliciting(self) -> bool:
        return False


@dataclass(frozen=True)
class CryptoFrame(Frame):
    """CRYPTO frame carrying a slice of the TLS handshake byte stream."""

    offset: int
    data: bytes

    def encode(self) -> bytes:
        return (
            bytes([FrameType.CRYPTO])
            + encode_varint(self.offset)
            + encode_varint(len(self.data))
            + self.data
        )

    def _wire_size(self) -> int:
        return 1 + varint_size(self.offset) + varint_size(len(self.data)) + len(self.data)


@dataclass(frozen=True)
class ConnectionCloseFrame(Frame):
    """CONNECTION_CLOSE (transport variant, type 0x1c)."""

    error_code: int = 0
    frame_type: int = 0
    reason: str = ""

    def encode(self) -> bytes:
        reason_bytes = self.reason.encode("utf-8")
        return (
            bytes([FrameType.CONNECTION_CLOSE])
            + encode_varint(self.error_code)
            + encode_varint(self.frame_type)
            + encode_varint(len(reason_bytes))
            + reason_bytes
        )

    def _wire_size(self) -> int:
        reason_length = len(self.reason.encode("utf-8"))
        return (
            1
            + varint_size(self.error_code)
            + varint_size(self.frame_type)
            + varint_size(reason_length)
            + reason_length
        )

    @property
    def is_ack_eliciting(self) -> bool:
        return False

