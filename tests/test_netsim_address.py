"""Unit tests for IPv4 addressing."""

import pytest

from repro.netsim import IPv4Address, IPv4Prefix


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "157.240.20.63", "255.255.255.255"):
            assert str(IPv4Address.parse(text)) == text

    def test_invalid_addresses_rejected(self):
        for text in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Address.parse(text)
        with pytest.raises(ValueError):
            IPv4Address(-1)
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)

    def test_octets_and_host_octet(self):
        address = IPv4Address.parse("157.240.20.63")
        assert address.octets == (157, 240, 20, 63)
        assert address.host_octet == 63

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")


class TestIPv4Prefix:
    def test_parse_and_str(self):
        prefix = IPv4Prefix.parse("157.240.20.0/24")
        assert str(prefix) == "157.240.20.0/24"
        assert prefix.num_addresses == 256

    def test_host_bits_must_be_zero(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.0.0.1/24")

    def test_contains(self):
        prefix = IPv4Prefix.parse("104.16.0.0/16")
        assert prefix.contains(IPv4Address.parse("104.16.200.7"))
        assert not prefix.contains(IPv4Address.parse("104.17.0.1"))

    def test_address_at_and_bounds(self):
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        assert str(prefix.address_at(63)) == "198.51.100.63"
        with pytest.raises(ValueError):
            prefix.address_at(256)

    def test_iter_hosts_count(self):
        prefix = IPv4Prefix.parse("192.0.2.0/29")
        hosts = list(prefix.iter_hosts())
        assert len(hosts) == 8
        assert hosts[0] == prefix.network

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            IPv4Prefix(IPv4Address.parse("10.0.0.0"), 33)
