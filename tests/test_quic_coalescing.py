"""Unit tests for packet coalescing into UDP datagrams."""

import pytest

from repro.quic import ConnectionId, HandshakePacket, InitialPacket, UdpDatagram, split_into_datagrams
from repro.quic.frames import AckFrame, CryptoFrame


def _packets(sizes, dcid=None, scid=None):
    dcid = dcid or ConnectionId.generate("d", 8)
    scid = scid or ConnectionId.generate("s", 8)
    packets = []
    for index, size in enumerate(sizes):
        packets.append(HandshakePacket(dcid, scid, index, (CryptoFrame(0, bytes(size)),)))
    return packets


class TestUdpDatagram:
    def test_requires_at_least_one_packet(self):
        with pytest.raises(ValueError):
            UdpDatagram(())

    def test_size_is_sum_of_packets(self):
        packets = _packets([100, 200])
        datagram = UdpDatagram(tuple(packets))
        assert datagram.size == sum(p.size for p in packets)
        assert len(datagram.packets) == 2
        assert len(datagram.encode()) == datagram.size

    def test_contains_initial_and_ack_eliciting(self):
        dcid, scid = ConnectionId.generate("d", 8), ConnectionId.generate("s", 8)
        initial = InitialPacket(dcid, scid, 0, (AckFrame(),))
        datagram = UdpDatagram((initial,))
        assert datagram.contains_initial
        assert not datagram.is_ack_eliciting


class TestCoalesce:
    def test_split_with_coalescing_packs_greedily(self):
        packets = _packets([600, 600, 600])
        datagrams = split_into_datagrams(packets, mtu=1400, coalescing_enabled=True)
        assert len(datagrams) == 2
        assert len(datagrams[0].packets) == 2

    def test_split_without_coalescing_one_packet_per_datagram(self):
        packets = _packets([600, 600, 600])
        datagrams = split_into_datagrams(packets, mtu=1400, coalescing_enabled=False)
        assert len(datagrams) == 3
        assert all(len(d.packets) == 1 for d in datagrams)

    def test_all_bytes_preserved(self):
        packets = _packets([500, 900, 1300, 200])
        datagrams = split_into_datagrams(packets, mtu=1472)
        assert sum(d.size for d in datagrams) == sum(p.size for p in packets)

    def test_single_oversized_packet_rejected(self):
        packets = _packets([2000])
        with pytest.raises(ValueError):
            split_into_datagrams(packets, mtu=1472)
