"""Unit tests for the quicreach-like scanner and the Initial-size sweep."""

import pytest

from repro.analysis.figures import figure03
from repro.netsim import IPv4Address, QuicServiceHost, UdpNetwork
from repro.quic.handshake import HandshakeClass
from repro.quic.profiles import BUILTIN_PROFILES, CLOUDFLARE_LIKE, RFC_COMPLIANT
from repro.quic.server import FlightPlanCache
from repro.scanners import InitialSizeSweep, QuicReach
from repro.scanners.quicreach import DEFAULT_ANALYSIS_INITIAL_SIZE, SWEEP_INITIAL_SIZES
from repro.tls.cert_compression import CertificateCompressionAlgorithm


@pytest.fixture
def small_network(cloudflare_chain, lets_encrypt_long_chain, lets_encrypt_short_chain):
    network = UdpNetwork()
    network.attach_host(
        QuicServiceHost(IPv4Address.parse("10.1.0.1"), "cf.example", cloudflare_chain, CLOUDFLARE_LIKE)
    )
    network.attach_host(
        QuicServiceHost(IPv4Address.parse("10.1.0.2"), "long.example", lets_encrypt_long_chain, RFC_COMPLIANT)
    )
    network.attach_host(
        QuicServiceHost(IPv4Address.parse("10.1.0.3"), "short.example", lets_encrypt_short_chain, RFC_COMPLIANT)
    )
    network.attach_host(
        QuicServiceHost(
            IPv4Address.parse("10.1.0.4"),
            "tunnelled.example",
            lets_encrypt_short_chain,
            RFC_COMPLIANT,
            encapsulation_overhead=60,
        )
    )
    return network


class TestQuicReach:
    def test_sweep_constants_match_paper(self):
        assert SWEEP_INITIAL_SIZES[0] == 1200
        assert SWEEP_INITIAL_SIZES[-1] == 1472
        assert DEFAULT_ANALYSIS_INITIAL_SIZE == 1362
        assert SWEEP_INITIAL_SIZES[1] - SWEEP_INITIAL_SIZES[0] == 10

    def test_scan_classifies_services(self, small_network):
        scanner = QuicReach(small_network)
        assert scanner.scan_domain("cf.example").handshake_class is HandshakeClass.AMPLIFICATION
        assert scanner.scan_domain("long.example").handshake_class is HandshakeClass.MULTI_RTT
        assert scanner.scan_domain("short.example").handshake_class is HandshakeClass.ONE_RTT

    def test_unknown_domain_is_unreachable(self, small_network):
        observation = QuicReach(small_network).scan_domain("nope.example")
        assert not observation.reachable
        assert observation.handshake_class is None

    def test_tunnelled_service_unreachable_for_large_initials(self, small_network):
        scanner = QuicReach(small_network)
        small = scanner.scan_domain("tunnelled.example", initial_size=1250)
        large = scanner.scan_domain("tunnelled.example", initial_size=1472)
        assert small.reachable
        assert not large.reachable

    def test_observation_byte_accounting(self, small_network):
        observation = QuicReach(small_network).scan_domain("cf.example")
        assert observation.total_bytes >= observation.first_rtt_bytes
        assert observation.tls_payload_bytes > 0
        assert observation.quic_overhead_bytes > 0
        assert observation.amplification_factor == pytest.approx(
            observation.first_rtt_bytes / observation.initial_size
        )
        assert observation.exceeds_limit

    def test_scan_many_preserves_metadata(self, small_network):
        observations = QuicReach(small_network).scan_many(
            [("cf.example", 5, "cloudflare"), ("short.example", 9, None)]
        )
        assert observations[0].rank == 5 and observations[0].provider == "cloudflare"
        assert observations[1].rank == 9


class TestInitialSizeSweep:
    def test_sweep_covers_all_sizes(self, small_network):
        sweep = InitialSizeSweep(QuicReach(small_network), initial_sizes=(1200, 1350, 1472))
        result = sweep.run([("cf.example", 1, None), ("short.example", 2, None)])
        assert [o.initial_size for o in result.observations] == [1200, 1200, 1350, 1350, 1472, 1472]

    def test_class_counts_and_reachability(self, small_network):
        sweep = InitialSizeSweep(QuicReach(small_network), initial_sizes=(1250, 1472))
        result = sweep.run(
            [("cf.example", 1, None), ("short.example", 2, None), ("tunnelled.example", 3, None)]
        )
        figure = figure03.compute(result)  # the report's walk over the sweep
        assert figure.reachable[1250] == 3
        assert figure.reachable[1472] == 2
        counts = figure.counts[1250]
        assert counts[HandshakeClass.AMPLIFICATION] == 1
        assert counts[HandshakeClass.ONE_RTT] == 2


class TestSweepMatchesPerSizeScans:
    """The sweep computes target-major (one server and cached flight per
    target) but must equal scanning every size separately, size-major."""

    SIZES = (1200, 1250, 1357, 1362, 1400, 1440, 1450, 1472)

    @pytest.fixture
    def profile_network(self, cloudflare_chain, lets_encrypt_long_chain):
        network = UdpNetwork()
        targets = []
        address = 1
        for profile in BUILTIN_PROFILES.values():
            for label, chain in (("cf", cloudflare_chain), ("le", lets_encrypt_long_chain)):
                domain = f"{label}.{profile.name}.example"
                network.attach_host(QuicServiceHost(
                    IPv4Address.parse(f"10.2.0.{address}"), domain, chain, profile
                ))
                targets.append((domain, address, profile.name))
                address += 1
        # Encapsulation overhead makes this host refuse the large Initials.
        network.attach_host(QuicServiceHost(
            IPv4Address.parse(f"10.2.0.{address}"), "tunnel.example", cloudflare_chain,
            BUILTIN_PROFILES["retry-always"], encapsulation_overhead=60,
        ))
        targets.append(("tunnel.example", address, None))
        targets.insert(3, ("unknown.example", 99, None))
        return network, targets

    def _size_major_reference(self, network, targets, compression):
        cache = FlightPlanCache()
        scanner = QuicReach(network, flight_cache=cache)
        expected = [
            scanner.scan_domain(domain, rank, provider, size, compression)
            for size in self.SIZES
            for domain, rank, provider in targets
        ]
        assert {o.handshake_class for o in expected if o.reachable} >= {
            HandshakeClass.RETRY, HandshakeClass.MULTI_RTT,
            HandshakeClass.AMPLIFICATION, HandshakeClass.ONE_RTT,
        }
        return expected, cache.cache_info()

    def test_sweep_equals_size_major_scans(self, profile_network):
        network, targets = profile_network
        expected, reference_info = self._size_major_reference(network, targets, ())
        sweep_cache = FlightPlanCache()
        sweep = InitialSizeSweep(QuicReach(network, flight_cache=sweep_cache), self.SIZES)
        result = sweep.run(targets)

        assert list(result.observations) == expected
        reachable = figure03.compute(result).reachable
        assert reachable[1472] < reachable[1200]
        # One lookup per server response, whichever order computes them.
        assert sweep_cache.cache_info() == reference_info

    @pytest.mark.parametrize(
        "compression",
        [(), (CertificateCompressionAlgorithm.BROTLI, CertificateCompressionAlgorithm.ZLIB)],
        ids=["no-offer", "brotli-zlib"],
    )
    def test_per_target_scans_equal_size_major_scans(self, profile_network, compression):
        # The per-target path the sweep runs, with and without an RFC 8879 offer.
        network, targets = profile_network
        expected, reference_info = self._size_major_reference(network, targets, compression)
        cache = FlightPlanCache()
        scanner = QuicReach(network, flight_cache=cache)
        per_target = [
            scanner._scan_target(domain, rank, provider, self.SIZES, compression)
            for domain, rank, provider in targets
        ]

        assert [o for at_size in zip(*per_target) for o in at_size] == expected
        assert cache.cache_info() == reference_info

    @pytest.mark.parametrize("initial_size", [1199, 1473])
    def test_out_of_range_size_raises_where_the_host_refuses(self, profile_network, initial_size):
        network, targets = profile_network
        scanner = QuicReach(network, flight_cache=FlightPlanCache())
        with pytest.raises(ValueError):
            scanner.scan_domain("tunnel.example", initial_size=initial_size)
        with pytest.raises(ValueError):
            InitialSizeSweep(scanner, self.SIZES + (initial_size,)).run(targets)
