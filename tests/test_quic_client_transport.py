"""Unit tests for the client second flight and transport parameters."""

from repro.quic import ConnectionId, TransportParameters
from repro.quic.client import QuicClientConfig, build_client_second_flight
from repro.quic.varint import decode_varint


class TestClientSecondFlight:
    def test_second_flight_has_initial_ack_and_handshake(self):
        config = QuicClientConfig()
        datagrams = build_client_second_flight("client.example", config)
        assert len(datagrams) == 2
        initial_datagram, handshake_datagram = datagrams
        assert initial_datagram.contains_initial
        assert initial_datagram.size >= 1200  # padded per RFC 9000 §14.1
        assert not handshake_datagram.contains_initial

    def test_second_flight_is_small_compared_to_server_flight(self):
        config = QuicClientConfig()
        datagrams = build_client_second_flight("client.example", config)
        assert sum(d.size for d in datagrams) < 1600


class TestTransportParameters:
    def test_encoding_is_nonempty_and_deterministic(self):
        params = TransportParameters()
        assert params.encode() == params.encode()
        assert len(params.encode()) > 20

    def test_connection_ids_included_when_set(self):
        scid = ConnectionId.generate("x", 8)
        with_cid = TransportParameters(initial_source_connection_id=scid)
        without = TransportParameters()
        assert len(with_cid.encode()) > len(without.encode())
        assert scid.value in with_cid.encode()

    def test_disable_active_migration_adds_empty_parameter(self):
        enabled = TransportParameters(disable_active_migration=True)
        disabled = TransportParameters(disable_active_migration=False)
        assert len(enabled.encode()) == len(disabled.encode()) + 2

    def test_first_entry_is_valid_varint_id(self):
        encoded = TransportParameters().encode()
        parameter_id, offset = decode_varint(encoded, 0)
        length, _ = decode_varint(encoded, offset)
        assert parameter_id >= 0
        assert length >= 0
