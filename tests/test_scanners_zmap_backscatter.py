"""Unit tests for the ZMap-like prober and the backscatter analysis."""

import pytest

from repro.analysis.figures import figure09
from repro.netsim import IPv4Address, IPv4Prefix, Telescope, UdpNetwork
from repro.netsim.telescope import BackscatterPacket
from repro.scanners import BackscatterAnalyzer, ZmapScanner, simulate_spoofed_campaign
from repro.scanners.zmap import ZmapProbeResult
from repro.scanners.orchestrator import META_POP_PREFIX
from repro.webpki.population import build_meta_point_of_presence


@pytest.fixture(scope="module")
def meta_network():
    network = UdpNetwork()
    for host in build_meta_point_of_presence(patched=False, prefix=META_POP_PREFIX):
        network.attach_host(host)
    return network


class TestZmapScanner:
    def test_probe_prefix_covers_every_address(self, meta_network):
        scanner = ZmapScanner(meta_network)
        results = scanner.probe_prefix(META_POP_PREFIX)
        assert len(results) == 256
        responding = [result for result in results if result.responded]
        assert 0 < len(responding) < 256

    def test_response_groups_match_paper(self, meta_network):
        results = ZmapScanner(meta_network).probe_prefix(META_POP_PREFIX)
        groups = {}
        for result in results:
            groups.setdefault(result.response_group(), []).append(result)
        # Group 1: no service; group 2: bounded ≈5x; group 3: storm ≈28x.
        assert set(groups) == {1, 2, 3}
        mean2 = sum(r.amplification_factor for r in groups[2]) / len(groups[2])
        mean3 = sum(r.amplification_factor for r in groups[3]) / len(groups[3])
        assert 3.5 <= mean2 <= 8
        assert mean3 > 20
        group3_domains = {r.domain for r in groups[3]}
        assert group3_domains <= {"instagram.com", "whatsapp.net"}

    def test_probe_size_recorded(self, meta_network):
        scanner = ZmapScanner(meta_network, probe_size=1252)
        result = scanner.probe_address(META_POP_PREFIX.address_at(1))
        assert result.probe_size == 1252
        assert result.host_octet == 1

    def test_response_group_thresholds(self):
        address = IPv4Address.parse("192.0.2.1")

        def group(bytes_received, responded=True):
            return ZmapProbeResult(address, responded, bytes_received, 1000).response_group()

        assert group(0, responded=False) == 1
        assert group(150) == 1
        assert group(151) == 2
        assert group(20_000) == 2
        assert group(20_001) == 3
        assert ZmapProbeResult(address, False, 0, 0).amplification_factor == 0.0


class TestBackscatter:
    def test_spoofed_campaign_fills_telescope(self, meta_network):
        telescope = Telescope()
        telescope_prefix = IPv4Prefix.parse("198.51.100.0/24")
        meta_network.attach_telescope(telescope_prefix, telescope)
        targets = [host.address for host in meta_network.hosts_in_prefix(META_POP_PREFIX)]
        responded = simulate_spoofed_campaign(meta_network, targets, telescope_prefix)
        assert responded == len(targets)
        packets = sum(session.packet_count for session in telescope.sessions())
        assert packets > len(targets)  # several datagrams per session

        analyzer = BackscatterAnalyzer(telescope, lambda domain: "meta")
        per_provider = analyzer.analyze()
        assert "meta" in per_provider
        meta = per_provider["meta"]
        assert meta.session_count == pytest.approx(len(targets), abs=3)
        figure = figure09.compute(per_provider)  # the report's reading of the sessions
        assert figure.maximum("meta") > 10  # the instagram/whatsapp storm group
        assert figure.share_exceeding("meta", 3.0) > 0.9

    def test_campaign_backscatter_shapes(self, campaign_results):
        backscatter = campaign_results.backscatter
        assert {"cloudflare", "google", "meta"} <= set(backscatter)
        figure = figure09.compute(backscatter)
        assert figure.maximum("meta") > figure.maximum("cloudflare")
        assert figure.maximum("cloudflare") < 12
        assert figure.maximum("google") < 12
        for provider in ("cloudflare", "google", "meta"):
            assert figure.share_exceeding(provider, 3.0) > 0.5


def _packet(domain, scid, size, timestamp):
    return BackscatterPacket(
        server_address=IPv4Address.parse("192.0.2.1"),
        victim_address=IPv4Address.parse("198.51.100.1"),
        domain=domain,
        source_connection_id=scid,
        size=size,
        timestamp=timestamp,
    )


class TestBackscatterAnalyzer:
    def test_sessions_of_unknown_domains_are_bucketed(self):
        telescope = Telescope()
        telescope.observe(_packet("known.example", "a", 1362, 0.0))
        telescope.observe(_packet("stray.example", "b", 1362, 0.0))
        analyzer = BackscatterAnalyzer(
            telescope, {"known.example": "cloudflare"}.get
        )
        grouped = analyzer.sessions_by_provider()
        assert set(grouped) == {"cloudflare", "unknown"}
        assert [s.domain for s in grouped["unknown"]] == ["stray.example"]

    def test_factors_and_durations_per_provider(self):
        telescope = Telescope()
        for scid, sizes_at in {
            "a": [(1362, 0.0), (1362, 1.0)],
            "b": [(2724, 5.0), (1362, 8.0), (1362, 9.0)],
            "c": [(1362, 2.0)],
        }.items():
            for size, timestamp in sizes_at:
                telescope.observe(_packet("meta.example", scid, size, timestamp))
        (meta,) = BackscatterAnalyzer(telescope, lambda domain: "meta").analyze().values()
        assert meta.session_count == 3
        assert sorted(meta.amplification_factors) == [1.0, 2.0, 4.0]
        assert meta.median_session_duration_s == 1.0
        assert meta.max_session_duration_s == 4.0

    def test_spoofed_campaign_is_deterministic_and_skips_dark_targets(self, meta_network):
        prefix = IPv4Prefix.parse("203.0.113.0/24")
        targets = [host.address for host in meta_network.hosts_in_prefix(META_POP_PREFIX)][:5]
        dark = IPv4Address.parse("192.0.2.200")
        runs = []
        for _ in range(2):
            telescope = Telescope()
            network = UdpNetwork()
            for address in targets:
                network.attach_host(meta_network.host_at(address))
            network.attach_telescope(prefix, telescope)
            responded = simulate_spoofed_campaign(
                network, targets + [dark], prefix, spoof_count_per_target=2, seed=3
            )
            assert responded == 2 * len(targets)
            runs.append(
                sorted((s.source_connection_id, s.total_bytes, s.first_seen) for s in telescope.sessions())
            )
        assert runs[0] == runs[1]
        assert len(runs[0]) <= 2 * len(targets)
