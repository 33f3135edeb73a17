"""Unit tests for the UDP fabric and the telescope."""

import pytest

from repro.netsim import IPv4Address, IPv4Prefix, QuicServiceHost, Telescope, UdpNetwork
from repro.netsim.telescope import BackscatterPacket
from repro.quic.client import QuicClientConfig
from repro.quic.profiles import RETRY_ALWAYS, RFC_COMPLIANT
from repro.quic.server import FlightPlanCache


@pytest.fixture
def network(cloudflare_chain, lets_encrypt_long_chain):
    network = UdpNetwork()
    network.attach_host(
        QuicServiceHost(
            address=IPv4Address.parse("104.16.0.1"),
            domain="cf.example",
            chain=cloudflare_chain,
            profile=RFC_COMPLIANT,
        )
    )
    network.attach_host(
        QuicServiceHost(
            address=IPv4Address.parse("104.16.0.2"),
            domain="tunnelled.example",
            chain=lets_encrypt_long_chain,
            profile=RFC_COMPLIANT,
            encapsulation_overhead=48,
        )
    )
    return network


class TestQuicServiceHost:
    def test_max_acceptable_initial_without_tunnel(self, cloudflare_chain):
        host = QuicServiceHost(
            address=IPv4Address.parse("10.0.0.1"),
            domain="x.example",
            chain=cloudflare_chain,
            profile=RFC_COMPLIANT,
        )
        assert host.max_acceptable_initial() == 1472
        assert host.accepts_initial(1472)

    def test_tunnel_overhead_reduces_acceptable_initial(self, cloudflare_chain):
        host = QuicServiceHost(
            address=IPv4Address.parse("10.0.0.2"),
            domain="t.example",
            chain=cloudflare_chain,
            profile=RFC_COMPLIANT,
            encapsulation_overhead=48,
        )
        assert host.max_acceptable_initial() == 1424
        assert host.accepts_initial(1424)
        assert not host.accepts_initial(1425)


class TestUdpNetwork:
    def test_host_lookup_by_address_and_domain(self, network):
        assert network.host_at(IPv4Address.parse("104.16.0.1")).domain == "cf.example"
        assert network.host_for_domain("CF.EXAMPLE").domain == "cf.example"
        assert network.host_at(IPv4Address.parse("9.9.9.9")) is None
        assert len(network.hosts_in_prefix(IPv4Prefix.parse("0.0.0.0/0"))) == 2

    def test_hosts_in_prefix(self, network):
        prefix = IPv4Prefix.parse("104.16.0.0/24")
        assert len(network.hosts_in_prefix(prefix)) == 2

    def test_probe_unresponsive_address(self, network):
        result = network.probe_unvalidated(IPv4Address.parse("8.8.8.8"))
        assert not result.responded
        assert result.bytes_returned == 0

    def test_probe_responding_host(self, network):
        result = network.probe_unvalidated(IPv4Address.parse("104.16.0.1"))
        assert result.responded
        assert result.bytes_returned > 1000

    def test_probe_dropped_by_tunnel_mtu(self, network):
        large_client = QuicClientConfig(initial_datagram_size=1472)
        result = network.probe_unvalidated(IPv4Address.parse("104.16.0.2"), client=large_client)
        assert not result.responded
        small_client = QuicClientConfig(initial_datagram_size=1250)
        assert network.probe_unvalidated(IPv4Address.parse("104.16.0.2"), client=small_client).responded

    def test_probe_reports_retry_use(self, network, lets_encrypt_short_chain):
        retry_address = IPv4Address.parse("104.16.0.3")
        network.attach_host(
            QuicServiceHost(
                address=retry_address,
                domain="retry.example",
                chain=lets_encrypt_short_chain,
                profile=RETRY_ALWAYS,
            )
        )
        retry = network.probe_unvalidated(retry_address)
        plain = network.probe_unvalidated(IPv4Address.parse("104.16.0.1"))
        assert retry.responded and retry.used_retry
        assert not plain.used_retry
        assert retry.bytes_returned < plain.bytes_returned

    def test_network_flight_cache_reaches_hosts_without_one(self, cloudflare_chain):
        shared, own = FlightPlanCache(), FlightPlanCache()
        network = UdpNetwork(flight_cache=shared)
        adopted = QuicServiceHost(
            address=IPv4Address.parse("10.0.0.1"), domain="a.example",
            chain=cloudflare_chain, profile=RFC_COMPLIANT,
        )
        kept = QuicServiceHost(
            address=IPv4Address.parse("10.0.0.2"), domain="k.example",
            chain=cloudflare_chain, profile=RFC_COMPLIANT, flight_cache=own,
        )
        network.attach_host(adopted)
        network.attach_host(kept)
        assert adopted.flight_cache is shared
        assert kept.flight_cache is own
        network.probe_unvalidated(adopted.address)
        assert shared.cache_info().misses == 1
        assert own.cache_info().misses == 0


class TestTelescope:
    def test_backscatter_recorded_only_for_telescope_prefix(self, network):
        telescope = Telescope("ucsd-like")
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        network.attach_telescope(prefix, telescope)

        inside = prefix.address_at(10)
        outside = IPv4Address.parse("203.0.113.5")
        network.probe_unvalidated(IPv4Address.parse("104.16.0.1"), spoofed_source=inside)
        network.probe_unvalidated(IPv4Address.parse("104.16.0.1"), spoofed_source=outside)
        assert telescope._packets
        assert all(prefix.contains(p.victim_address) for p in telescope._packets)

    def test_session_carries_every_byte_of_the_probe(self, network):
        telescope = Telescope()
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        network.attach_telescope(prefix, telescope)
        result = network.probe_unvalidated(
            IPv4Address.parse("104.16.0.1"), spoofed_source=prefix.address_at(7), timestamp=100.0
        )
        (session,) = telescope.sessions()
        assert session.total_bytes == result.bytes_returned
        assert session.domain == "cf.example"
        assert session.first_seen == 100.0
        assert session.duration_seconds > 0.0  # the resend round arrives later

    def test_each_victim_is_its_own_session(self, network):
        telescope = Telescope()
        prefix = IPv4Prefix.parse("198.51.100.0/24")
        network.attach_telescope(prefix, telescope)
        for offset in (1, 2):
            network.probe_unvalidated(
                IPv4Address.parse("104.16.0.1"), spoofed_source=prefix.address_at(offset)
            )
        sessions = telescope.sessions()
        assert len(sessions) == 2
        assert sessions[0].total_bytes == sessions[1].total_bytes
        assert sessions[0].source_connection_id != sessions[1].source_connection_id

    def test_unspoofed_probe_leaves_no_backscatter(self, network):
        telescope = Telescope()
        network.attach_telescope(IPv4Prefix.parse("0.0.0.0/0"), telescope)
        assert network.probe_unvalidated(IPv4Address.parse("104.16.0.1")).responded
        assert telescope.sessions() == []

    def test_sessions_group_by_scid(self):
        telescope = Telescope()
        address = IPv4Address.parse("1.2.3.4")
        victim = IPv4Address.parse("198.51.100.9")
        for index, (scid, size, ts) in enumerate(
            [("a", 1000, 0.0), ("a", 2000, 3.0), ("b", 500, 1.0)]
        ):
            telescope.observe(
                BackscatterPacket(
                    server_address=address,
                    victim_address=victim,
                    domain="d.example",
                    source_connection_id=scid,
                    size=size,
                    timestamp=ts,
                )
            )
        sessions = {s.source_connection_id: s for s in telescope.sessions()}
        assert sessions["a"].total_bytes == 3000
        assert sessions["a"].packet_count == 2
        assert sessions["a"].duration_seconds == pytest.approx(3.0)
        assert sessions["b"].total_bytes == 500
        assert sessions["a"].amplification_factor(1000) == pytest.approx(3.0)
