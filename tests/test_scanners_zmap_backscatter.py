"""Unit tests for the ZMap-like prober and the backscatter analysis."""

import pytest

from repro.netsim import IPv4Prefix, Telescope, UdpNetwork
from repro.scanners import BackscatterAnalyzer, ZmapScanner, simulate_spoofed_campaign
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
        responding = scanner.responding_hosts(results)
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


class TestBackscatter:
    def test_spoofed_campaign_fills_telescope(self, meta_network):
        telescope = Telescope()
        telescope_prefix = IPv4Prefix.parse("198.51.100.0/24")
        meta_network.attach_telescope(telescope_prefix, telescope)
        targets = [host.address for host in meta_network.hosts_in_prefix(META_POP_PREFIX)]
        responded = simulate_spoofed_campaign(meta_network, targets, telescope_prefix)
        assert responded == len(targets)
        assert len(telescope) > len(targets)  # several datagrams per session

        analyzer = BackscatterAnalyzer(telescope, lambda domain: "meta")
        per_provider = analyzer.analyze()
        assert "meta" in per_provider
        meta = per_provider["meta"]
        assert meta.session_count == pytest.approx(len(targets), abs=3)
        assert meta.max_amplification > 10  # the instagram/whatsapp storm group
        assert meta.share_exceeding(3.0) > 0.9

    def test_campaign_backscatter_shapes(self, campaign_results):
        backscatter = campaign_results.reduced.backscatter
        assert {"cloudflare", "google", "meta"} <= set(backscatter)
        assert backscatter["meta"].max_amplification > backscatter["cloudflare"].max_amplification
        assert backscatter["cloudflare"].max_amplification < 12
        assert backscatter["google"].max_amplification < 12
        for provider in ("cloudflare", "google", "meta"):
            assert backscatter[provider].share_exceeding(3.0) > 0.5
