"""Unit tests for the QUIC server engine, handshake simulation and profiles."""

import pytest

from repro.quic import (
    BUILTIN_PROFILES,
    CoalescenceMode,
    HandshakeClass,
    QuicClientConfig,
    QuicServer,
    ServerBehaviorProfile,
    build_client_initial_datagram,
    simulate_handshake,
)
from dataclasses import replace

from repro.core.limits import BROWSER_PROFILES
from repro.netsim import IPv4Address, QuicServiceHost, UdpNetwork
from repro.quic.anti_amplification import ANTI_AMPLIFICATION_FACTOR
from repro.quic.handshake import simulate_handshakes
from repro.quic.packet import PacketType
from repro.quic.profiles import (
    CLOUDFLARE_LIKE,
    GOOGLE_LIKE,
    MVFST_LIKE,
    MVFST_PATCHED,
    RETRY_ALWAYS,
    RFC_COMPLIANT,
    RFC_COMPLIANT_NO_COMPRESSION,
    with_universal_compression,
    without_compression,
)
from repro.tls.cert_compression import CertificateCompressionAlgorithm
from repro.tls.handshake_messages import ClientHello

#: The Initial the campaign's §4.3 probe sends (``UdpNetwork.probe_unvalidated``).
PROBE_INITIAL = 1252


def probe_unvalidated(domain, chain, profile):
    """One unacknowledged Initial to a single host, through the campaign's probe."""
    network = UdpNetwork()
    address = IPv4Address.parse("192.0.2.1")
    network.attach_host(QuicServiceHost(address=address, domain=domain, chain=chain, profile=profile))
    return network.probe_unvalidated(address)


class TestClientInitial:
    def test_padded_to_exact_size(self):
        for size in (1200, 1252, 1357, 1472):
            config = QuicClientConfig(initial_datagram_size=size)
            datagram = build_client_initial_datagram("client.example", config)
            assert datagram.size == size

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            QuicClientConfig(initial_datagram_size=1199)

    def test_above_mtu_rejected(self):
        with pytest.raises(ValueError):
            QuicClientConfig(initial_datagram_size=1500)

    def test_browser_profiles(self, cloudflare_chain):
        """Table 1's QUIC browsers, as clients: their Initial sizes and offers."""
        negotiated = {}
        for name, browser in BROWSER_PROFILES.items():
            if not browser.supports_quic:
                continue
            config = QuicClientConfig(
                initial_datagram_size=browser.initial_size,
                compression_algorithms=browser.compression_algorithms,
            )
            assert build_client_initial_datagram("b.example", config).size == browser.initial_size
            outcome = simulate_handshake("b.example", cloudflare_chain, CLOUDFLARE_LIKE, config)
            assert outcome.trace.client_initial_size == browser.initial_size
            negotiated[name] = outcome.trace.compression_negotiated
        assert negotiated == {
            "chromium": CertificateCompressionAlgorithm.BROTLI,
            "firefox": None,
        }


class TestServerFlightPlans:
    def test_compliant_server_respects_limit(self, lets_encrypt_long_chain):
        server = QuicServer("srv.example", lets_encrypt_long_chain, RFC_COMPLIANT)
        plan = server.respond_to_initial(ClientHello(server_name="srv.example"), 1200)
        assert plan.first_rtt_bytes <= 3 * 1200
        assert plan.requires_additional_rtt
        assert plan.deferred_bytes > 0

    def test_small_chain_fits_in_one_rtt(self, lets_encrypt_short_chain):
        server = QuicServer("short.example", lets_encrypt_short_chain, RFC_COMPLIANT)
        plan = server.respond_to_initial(ClientHello(server_name="short.example"), 1362)
        assert not plan.requires_additional_rtt
        assert plan.first_rtt_bytes <= 3 * 1362

    def test_cloudflare_profile_exceeds_limit_in_one_rtt(self, cloudflare_chain):
        server = QuicServer("cf.example", cloudflare_chain, CLOUDFLARE_LIKE)
        plan = server.respond_to_initial(ClientHello(server_name="cf.example"), 1362)
        assert not plan.requires_additional_rtt
        assert plan.first_rtt_bytes > 3 * 1362
        # The split-Initial behaviour produces two padded Initial datagrams,
        # i.e. roughly 2400 bytes of padding overhead (the paper's 2462 bytes).
        assert plan.padding_bytes_first_rtt > 1800

    def test_cloudflare_sends_two_initial_datagrams(self, cloudflare_chain):
        server = QuicServer("cf.example", cloudflare_chain, CLOUDFLARE_LIKE)
        plan = server.respond_to_initial(ClientHello(server_name="cf.example"), 1362)
        initial_datagrams = [d for d in plan.first_rtt_datagrams if d.contains_initial]
        assert len(initial_datagrams) == 2
        assert all(d.size >= 1200 for d in initial_datagrams)
        assert all(len(d.packets) == 1 for d in plan.first_rtt_datagrams)

    def test_retry_profile_answers_with_retry_first(self, lets_encrypt_short_chain):
        server = QuicServer("retry.example", lets_encrypt_short_chain, RETRY_ALWAYS)
        plan = server.respond_to_initial(ClientHello(server_name="retry.example"), 1200)
        assert plan.uses_retry
        assert plan.first_rtt_datagrams == ()
        follow_up = server.respond_to_initial(
            ClientHello(server_name="retry.example"), 1200, client_sent_retry_token=True
        )
        assert not follow_up.uses_retry
        assert follow_up.first_rtt_bytes > 0

    def test_tls_bytes_total_close_to_flight(self, cloudflare_chain):
        server = QuicServer("tls.example", cloudflare_chain, RFC_COMPLIANT)
        plan = server.respond_to_initial(ClientHello(server_name="tls.example"), 1362)
        assert plan.tls_bytes_total > cloudflare_chain.total_size
        assert plan.total_bytes > plan.tls_bytes_total
        assert plan.total_bytes == plan.first_rtt_bytes + plan.deferred_bytes

    def test_compliant_server_stops_at_the_datagram_that_would_cross_the_limit(
        self, lets_encrypt_long_chain
    ):
        server = QuicServer("edge.example", lets_encrypt_long_chain, RFC_COMPLIANT)
        plan = server.respond_to_initial(ClientHello(server_name="edge.example"), 1200)
        limit = ANTI_AMPLIFICATION_FACTOR * 1200
        assert plan.first_rtt_bytes <= limit
        assert plan.first_rtt_bytes + plan.deferred_datagrams[0].size > limit
        assert plan.tracker.bytes_sent == plan.first_rtt_bytes

    def test_mvfst_like_first_flight_ignores_the_limit(self, lets_encrypt_long_chain):
        server = QuicServer("mvfst.example", lets_encrypt_long_chain, MVFST_LIKE)
        plan = server.respond_to_initial(ClientHello(server_name="mvfst.example"), 1200)
        assert not plan.requires_additional_rtt
        assert plan.first_rtt_bytes > ANTI_AMPLIFICATION_FACTOR * 1200

    def test_coalescing_server_fills_the_initial_datagram(self, lets_encrypt_long_chain):
        """A coalescing server sends Handshake data next to its Initial instead of padding."""
        server = QuicServer("full.example", lets_encrypt_long_chain, RFC_COMPLIANT)
        plan = server.respond_to_initial(ClientHello(server_name="full.example"), 1362)
        first = plan.first_rtt_datagrams[0]
        assert [p.packet_type for p in first.packets] == [PacketType.INITIAL, PacketType.HANDSHAKE]
        assert first.padding_bytes == 0
        assert first.size > 1200

    def test_only_padding_profiles_pad_the_ack_only_initial(self, cloudflare_chain):
        hello = ClientHello(server_name="ack.example")
        padded = QuicServer("ack.example", cloudflare_chain, CLOUDFLARE_LIKE)
        ack_only = padded.respond_to_initial(hello, 1362).first_rtt_datagrams[0]
        assert not ack_only.is_ack_eliciting
        assert ack_only.size >= 1200
        lean_profile = replace(CLOUDFLARE_LIKE, pad_all_initial_datagrams=False)
        lean = QuicServer("ack.example", cloudflare_chain, lean_profile)
        lean_ack = lean.respond_to_initial(hello, 1362).first_rtt_datagrams[0]
        assert not lean_ack.is_ack_eliciting
        assert lean_ack.padding_bytes == 0
        assert lean_ack.size < 100

    def test_retry_plan_charges_only_the_retry(self, lets_encrypt_long_chain):
        server = QuicServer("retry2.example", lets_encrypt_long_chain, RETRY_ALWAYS)
        plan = server.respond_to_initial(ClientHello(server_name="retry2.example"), 1200)
        assert plan.total_bytes == plan.retry_datagram.size
        assert plan.tracker.bytes_sent == plan.retry_datagram.size
        assert not plan.requires_additional_rtt


class TestHandshakeSimulation:
    def test_classification_matches_profiles(self, hierarchy, browser_client):
        cases = [
            ("Cloudflare ECC CA-3", "cloudflare-like", HandshakeClass.AMPLIFICATION),
            ("Let's Encrypt R3 + cross-signed X1", "rfc-compliant", HandshakeClass.MULTI_RTT),
            ("Let's Encrypt E1 (short)", "rfc-compliant", HandshakeClass.ONE_RTT),
            ("Let's Encrypt R3 (short)", "retry-always", HandshakeClass.RETRY),
        ]
        for profile_label, behavior, expected in cases:
            chain = hierarchy.profiles[profile_label].issue(f"{behavior}.example")
            outcome = simulate_handshake(
                f"{behavior}.example", chain, BUILTIN_PROFILES[behavior], browser_client
            )
            assert outcome.handshake_class is expected, profile_label

    def test_trace_round_trips(self, hierarchy, browser_client):
        chain = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("rtt.example")
        outcome = simulate_handshake("rtt.example", chain, RFC_COMPLIANT, browser_client)
        assert outcome.trace.round_trips == 2
        short = hierarchy.profiles["Let's Encrypt E1 (short)"].issue("rtt2.example")
        outcome_short = simulate_handshake("rtt2.example", short, RFC_COMPLIANT, browser_client)
        assert outcome_short.trace.round_trips == 1

    def test_amplification_factor_of_compliant_server_below_three(self, hierarchy, browser_client):
        chain = hierarchy.profiles["Let's Encrypt E1 (short)"].issue("amp.example")
        outcome = simulate_handshake("amp.example", chain, RFC_COMPLIANT, browser_client)
        assert outcome.trace.first_rtt_amplification <= 3.0

    def test_larger_initial_can_turn_multi_rtt_into_one_rtt(self, hierarchy):
        chain = hierarchy.profiles["GoDaddy G2"].issue("border.example")
        small = simulate_handshake(
            "border.example", chain, RFC_COMPLIANT, QuicClientConfig(initial_datagram_size=1200)
        )
        large = simulate_handshake(
            "border.example", chain, RFC_COMPLIANT, QuicClientConfig(initial_datagram_size=1472)
        )
        assert small.handshake_class is HandshakeClass.MULTI_RTT
        assert large.handshake_class is HandshakeClass.ONE_RTT

    def test_simulate_handshakes_matches_one_call_per_client(self, cloudflare_chain):
        clients = [QuicClientConfig(initial_datagram_size=size) for size in (1200, 1362, 1472)]
        batch = simulate_handshakes("many.example", cloudflare_chain, RFC_COMPLIANT, clients)
        for client, outcome in zip(clients, batch):
            single = simulate_handshake("many.example", cloudflare_chain, RFC_COMPLIANT, client)
            assert outcome.handshake_class is single.handshake_class
            assert outcome.trace.client_initial_size == client.initial_datagram_size
            assert outcome.trace.server_bytes_first_rtt == single.trace.server_bytes_first_rtt
            assert outcome.trace.server_bytes_total == single.trace.server_bytes_total
        assert len(batch) == len(clients)

    def test_simulate_handshakes_rejects_mixed_offers(self, cloudflare_chain):
        clients = [
            QuicClientConfig(),
            QuicClientConfig(compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,)),
        ]
        with pytest.raises(ValueError):
            simulate_handshakes("mixed.example", cloudflare_chain, RFC_COMPLIANT, clients)

    def test_simulate_handshakes_of_no_clients_is_empty(self, cloudflare_chain):
        assert simulate_handshakes("none.example", cloudflare_chain, RFC_COMPLIANT, []) == []


class TestUnvalidatedProbes:
    def test_compliant_server_stays_near_limit(self, lets_encrypt_long_chain):
        probe = probe_unvalidated("p.example", lets_encrypt_long_chain, RFC_COMPLIANT)
        assert probe.bytes_returned / PROBE_INITIAL <= 3.5

    def test_mvfst_like_server_amplifies_heavily(self, hierarchy):
        chain = hierarchy.profiles["DigiCert SHA2 + root (Meta)"].issue(
            "meta.example", san_names=[f"alt{i}.meta.example" for i in range(60)]
        )
        probe = probe_unvalidated("meta.example", chain, MVFST_LIKE)
        assert probe.bytes_returned / PROBE_INITIAL > 15
        assert probe.bytes_returned > ANTI_AMPLIFICATION_FACTOR * PROBE_INITIAL

    def test_retry_probe_is_tiny(self, lets_encrypt_short_chain):
        probe = probe_unvalidated("r.example", lets_encrypt_short_chain, RETRY_ALWAYS)
        assert probe.bytes_returned / PROBE_INITIAL < 0.5

    def test_schedule_is_consistent_with_total(self, cloudflare_chain):
        server = QuicServer("sched.example", cloudflare_chain, MVFST_LIKE)
        hello = ClientHello(server_name="sched.example")
        plan, schedule = server.unvalidated_transmission_schedule(hello, PROBE_INITIAL)
        total = probe_unvalidated("sched.example", cloudflare_chain, MVFST_LIKE).bytes_returned
        assert sum(size for _, size in schedule) == total
        assert schedule[0][0] == 0.0
        assert schedule[-1][0] > 0.0  # retransmission rounds are delayed

    def test_resend_rounds_back_off_exponentially(self, cloudflare_chain):
        server = QuicServer("backoff.example", cloudflare_chain, MVFST_LIKE)
        _, schedule = server.unvalidated_transmission_schedule(
            ClientHello(server_name="backoff.example"), PROBE_INITIAL
        )
        offsets = sorted({offset for offset, _ in schedule})
        assert offsets == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]

    def test_compliant_resends_stay_within_the_budget(self, lets_encrypt_short_chain):
        probe = probe_unvalidated("budget.example", lets_encrypt_short_chain, RFC_COMPLIANT)
        assert probe.bytes_returned <= ANTI_AMPLIFICATION_FACTOR * PROBE_INITIAL

    def test_google_like_resends_beyond_the_limit(self, lets_encrypt_long_chain):
        """First flight within 3x, but unbounded resends carry the total past it (Figure 9)."""
        server = QuicServer("g.example", lets_encrypt_long_chain, GOOGLE_LIKE)
        plan = server.respond_to_initial(ClientHello(server_name="g.example"), PROBE_INITIAL)
        assert plan.first_rtt_bytes <= ANTI_AMPLIFICATION_FACTOR * PROBE_INITIAL
        probe = probe_unvalidated("g.example", lets_encrypt_long_chain, GOOGLE_LIKE)
        assert probe.bytes_returned > ANTI_AMPLIFICATION_FACTOR * PROBE_INITIAL
        assert probe.bytes_returned == plan.first_rtt_bytes * 3  # two resend rounds


class TestDesignAblations:
    """What changes when one design choice the paper calls out is flipped."""

    def test_coalescence_keeps_a_borderline_chain_in_one_rtt(self, hierarchy, browser_client):
        chain = hierarchy.profiles["DigiCert SHA2"].issue("ablation-coalesce.example")
        no_coalescence = replace(
            RFC_COMPLIANT, name="no-coalescence", coalescence=CoalescenceMode.NONE
        )
        coalesced = simulate_handshake("a.example", chain, RFC_COMPLIANT, browser_client)
        padded = simulate_handshake("a.example", chain, no_coalescence, browser_client)
        assert coalesced.handshake_class is HandshakeClass.ONE_RTT
        assert padded.trace.server_bytes_total >= coalesced.trace.server_bytes_total

    def test_excluding_padding_from_the_limit_amplifies(self, hierarchy, browser_client):
        chain = hierarchy.profiles["Cloudflare ECC CA-3"].issue("ablation-cdn.example")
        honest = replace(CLOUDFLARE_LIKE, name="cdn-honest", count_padding_against_limit=True)
        cheating = simulate_handshake("a.example", chain, CLOUDFLARE_LIKE, browser_client)
        compliant = simulate_handshake("a.example", chain, honest, browser_client)
        assert cheating.trace.first_rtt_amplification > 3.0
        assert compliant.trace.first_rtt_amplification <= 3.0

    def test_bounding_retransmissions_caps_the_amplifier(self, hierarchy):
        chain = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue(
            "ablation-large.example"
        )
        unbounded, bounded, compliant = (
            probe_unvalidated("a.example", chain, profile).bytes_returned / PROBE_INITIAL
            for profile in (MVFST_LIKE, MVFST_PATCHED, RFC_COMPLIANT)
        )
        assert unbounded > 2 * bounded
        assert compliant <= 3.5

    def test_compression_turns_a_large_chain_into_one_rtt(self, hierarchy, browser_client):
        chain = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue(
            "ablation-large.example"
        )
        compressing_client = replace(
            browser_client, compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,)
        )
        plain = simulate_handshake("a.example", chain, RFC_COMPLIANT, browser_client)
        compressed = simulate_handshake("a.example", chain, RFC_COMPLIANT, compressing_client)
        assert plain.handshake_class is HandshakeClass.MULTI_RTT
        assert compressed.handshake_class is HandshakeClass.ONE_RTT
        assert compressed.trace.server_bytes_total < plain.trace.server_bytes_total


class TestProfiles:
    def test_builtin_profile_names(self):
        for name in ("rfc-compliant", "cloudflare-like", "mvfst-like", "retry-always", "google-like"):
            assert name in BUILTIN_PROFILES

    def test_describe_mentions_key_attributes(self):
        description = CLOUDFLARE_LIKE.describe()
        assert "padding-counted=no" in description
        assert "coalescence=split-initial-ack" in description

    def test_with_compression_returns_new_profile(self):
        profile = RFC_COMPLIANT.with_compression(CertificateCompressionAlgorithm.ZSTD)
        assert profile.supports_compression(CertificateCompressionAlgorithm.ZSTD)
        assert not RFC_COMPLIANT.supports_compression(CertificateCompressionAlgorithm.ZSTD)

    def test_builtin_profiles_are_keyed_by_name(self):
        assert all(name == profile.name for name, profile in BUILTIN_PROFILES.items())

    def test_universal_compression_adds_brotli_only_where_missing(self):
        upgraded = with_universal_compression(RFC_COMPLIANT_NO_COMPRESSION)
        assert upgraded.compression_algorithms == (CertificateCompressionAlgorithm.BROTLI,)
        assert with_universal_compression(RFC_COMPLIANT_NO_COMPRESSION) is upgraded
        assert with_universal_compression(MVFST_LIKE) is MVFST_LIKE

    def test_without_compression_strips_every_algorithm(self):
        stripped = without_compression(MVFST_LIKE)
        assert stripped.compression_algorithms == ()
        assert stripped.unvalidated_retransmission_rounds == MVFST_LIKE.unvalidated_retransmission_rounds
        assert without_compression(RETRY_ALWAYS) is RETRY_ALWAYS
        assert without_compression(stripped) is stripped
        assert "compression=" not in stripped.describe()
