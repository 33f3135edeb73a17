"""Unit tests for QUIC frames."""

import pytest

from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    FrameType,
    PaddingFrame,
    PingFrame,
)
from repro.quic.varint import decode_varint


class TestPadding:
    def test_padding_is_zero_bytes(self):
        frame = PaddingFrame(10)
        assert frame.encode() == bytes(10)
        assert frame.size == 10

    def test_padding_not_ack_eliciting(self):
        assert PaddingFrame(1).is_ack_eliciting is False

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PaddingFrame(-1)


class TestAckAndPing:
    def test_ack_not_ack_eliciting(self):
        assert AckFrame().is_ack_eliciting is False

    def test_ping_is_ack_eliciting(self):
        assert PingFrame().is_ack_eliciting is True
        assert PingFrame().encode() == bytes([FrameType.PING])

    def test_ack_encoding_starts_with_type(self):
        encoded = AckFrame(largest_acknowledged=3).encode()
        assert encoded[0] == FrameType.ACK
        assert len(encoded) >= 5


class TestCrypto:
    def test_crypto_frame_overhead_is_small(self):
        data = bytes(1000)
        frame = CryptoFrame(offset=0, data=data)
        assert frame.is_ack_eliciting
        assert 1002 <= frame.size <= 1006  # type + offset varint + length varint

    def test_encoding_carries_offset_and_length(self):
        frame = CryptoFrame(offset=100, data=bytes(range(50)))
        encoded = frame.encode()
        assert encoded[0] == FrameType.CRYPTO
        offset, position = decode_varint(encoded, 1)
        length, position = decode_varint(encoded, position)
        assert (offset, length) == (100, 50)
        assert encoded[position:] == frame.data

    @pytest.mark.parametrize("offset", [0, 63, 64, 16383, 16384, 2**30])
    def test_size_matches_encoding_across_varint_widths(self, offset):
        for data in (b"", bytes(63), bytes(64)):
            frame = CryptoFrame(offset=offset, data=data)
            assert frame.size == len(frame.encode())


class TestConnectionClose:
    def test_contains_reason(self):
        frame = ConnectionCloseFrame(error_code=7, reason="go away")
        assert b"go away" in frame.encode()
        assert frame.is_ack_eliciting is False
