"""QUIC transport parameters (RFC 9000 §18)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .connection_id import ConnectionId
from .varint import encode_varint


# Transport parameter IDs (RFC 9000 §18.2).
ORIGINAL_DESTINATION_CONNECTION_ID = 0x00
MAX_IDLE_TIMEOUT = 0x01
MAX_UDP_PAYLOAD_SIZE = 0x03
INITIAL_MAX_DATA = 0x04
INITIAL_MAX_STREAM_DATA_BIDI_LOCAL = 0x05
INITIAL_MAX_STREAM_DATA_BIDI_REMOTE = 0x06
INITIAL_MAX_STREAM_DATA_UNI = 0x07
INITIAL_MAX_STREAMS_BIDI = 0x08
INITIAL_MAX_STREAMS_UNI = 0x09
ACK_DELAY_EXPONENT = 0x0A
MAX_ACK_DELAY = 0x0B
DISABLE_ACTIVE_MIGRATION = 0x0C
INITIAL_SOURCE_CONNECTION_ID = 0x0F
RETRY_SOURCE_CONNECTION_ID = 0x10


@dataclass(frozen=True)
class TransportParameters:
    """The transport parameters endpoints exchange during the handshake."""

    max_idle_timeout_ms: int = 30_000
    max_udp_payload_size: int = 1472
    initial_max_data: int = 10 * 1024 * 1024
    initial_max_stream_data: int = 1024 * 1024
    initial_max_streams_bidi: int = 100
    initial_max_streams_uni: int = 3
    ack_delay_exponent: int = 3
    max_ack_delay_ms: int = 25
    disable_active_migration: bool = False
    initial_source_connection_id: Optional[ConnectionId] = None
    original_destination_connection_id: Optional[ConnectionId] = None
    retry_source_connection_id: Optional[ConnectionId] = None

    def encode(self) -> bytes:
        """Encode as the sequence of (id, length, value) entries."""
        entries: Dict[int, bytes] = {
            MAX_IDLE_TIMEOUT: encode_varint(self.max_idle_timeout_ms),
            MAX_UDP_PAYLOAD_SIZE: encode_varint(self.max_udp_payload_size),
            INITIAL_MAX_DATA: encode_varint(self.initial_max_data),
            INITIAL_MAX_STREAM_DATA_BIDI_LOCAL: encode_varint(self.initial_max_stream_data),
            INITIAL_MAX_STREAM_DATA_BIDI_REMOTE: encode_varint(self.initial_max_stream_data),
            INITIAL_MAX_STREAM_DATA_UNI: encode_varint(self.initial_max_stream_data),
            INITIAL_MAX_STREAMS_BIDI: encode_varint(self.initial_max_streams_bidi),
            INITIAL_MAX_STREAMS_UNI: encode_varint(self.initial_max_streams_uni),
            ACK_DELAY_EXPONENT: encode_varint(self.ack_delay_exponent),
            MAX_ACK_DELAY: encode_varint(self.max_ack_delay_ms),
        }
        if self.disable_active_migration:
            entries[DISABLE_ACTIVE_MIGRATION] = b""
        if self.initial_source_connection_id is not None:
            entries[INITIAL_SOURCE_CONNECTION_ID] = self.initial_source_connection_id.value
        if self.original_destination_connection_id is not None:
            entries[ORIGINAL_DESTINATION_CONNECTION_ID] = self.original_destination_connection_id.value
        if self.retry_source_connection_id is not None:
            entries[RETRY_SOURCE_CONNECTION_ID] = self.retry_source_connection_id.value
        encoded = b""
        for parameter_id, value in sorted(entries.items()):
            encoded += encode_varint(parameter_id) + encode_varint(len(value)) + value
        return encoded
