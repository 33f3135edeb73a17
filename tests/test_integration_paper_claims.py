"""End-to-end checks of the paper's headline claims against the reproduction.

Each test cites the claim from the paper (section / figure) and asserts that
the reproduced measurement lands in a band around it.  Bands are generous —
the substrate is a synthetic population, not the 2022 Internet — but tight
enough that a structural regression (broken amplification accounting, broken
coalescing, broken chain generation) breaks the test.
"""

import pytest

from repro.analysis.report import build_report, class_shares
from repro.quic.handshake import HandshakeClass


@pytest.fixture(scope="module")
def report(campaign_results):
    return build_report(campaign_results)


class TestSection41HandshakeClasses:
    def test_amplification_and_multi_rtt_dominate(self, campaign_results):
        """§4.1: 61 % amplification, 38 % multi-RTT at a 1362-byte Initial."""
        shares = class_shares(campaign_results)
        assert shares[HandshakeClass.AMPLIFICATION] == pytest.approx(0.61, abs=0.10)
        assert shares[HandshakeClass.MULTI_RTT] == pytest.approx(0.38, abs=0.10)

    def test_one_rtt_and_retry_are_rare(self, campaign_results):
        """§4.1: 0.75 % 1-RTT and 0.07 % Retry — DoS protection and fast
        handshakes are rare."""
        shares = class_shares(campaign_results)
        assert shares[HandshakeClass.ONE_RTT] < 0.05
        assert shares[HandshakeClass.RETRY] < 0.01

    def test_amplification_factor_stays_below_six(self, report):
        """§4.1 / Figure 4: first-RTT amplification stays relatively small."""
        figure04 = report["figure04"]
        assert figure04.share_below(6.0) > 0.95

    def test_cloudflare_explains_most_amplifying_handshakes(self, campaign_results):
        """§4.1: 96 % of amplifying handshakes come from one provider's stack."""
        amplifying = [
            o for o in campaign_results.shard.handshakes
            if o.reachable and o.handshake_class is HandshakeClass.AMPLIFICATION
        ]
        cloudflare = sum(1 for o in amplifying if o.provider == "cloudflare")
        assert cloudflare / len(amplifying) > 0.9


class TestSection42Certificates:
    def test_tls_bytes_cause_multi_rtt(self, report):
        """§4.2 / Figure 5: TLS payload alone exceeds the limit for ≈87 % of
        multi-RTT handshakes."""
        assert report["figure05"].share_tls_alone_exceeds == pytest.approx(0.87, abs=0.13)

    def test_chain_size_medians_and_limit_share(self, report):
        """§4.2 / Figure 6: medians 2329 B (QUIC) vs 4022 B (HTTPS-only), 35 %
        of chains above 3x1357 B."""
        figure06 = report["figure06"]
        assert figure06.quic_median == pytest.approx(2329, rel=0.25)
        assert figure06.https_only_median == pytest.approx(4022, rel=0.15)
        assert figure06.share_exceeding_limit == pytest.approx(0.35, abs=0.08)

    def test_quic_consolidation(self, report):
        """§4.2 / Figure 7: top-10 parent chains cover 96.5 % of QUIC services
        but only 72 % of HTTPS-only services."""
        assert report["figure07a"].top10_coverage == pytest.approx(0.965, abs=0.04)
        assert report["figure07b"].top10_coverage == pytest.approx(0.72, abs=0.12)

    def test_crypto_algorithm_split(self, report):
        """§4.2 / Table 2: QUIC leaves are mostly ECDSA, HTTPS-only mostly RSA."""
        table02 = report["table02"]
        assert table02.ecdsa_share("QUIC", "Leaf") == pytest.approx(0.789, abs=0.15)
        assert table02.rsa_share("HTTPS-only", "Leaf") == pytest.approx(0.895, abs=0.12)

    def test_compression_rescues_almost_all_chains(self, report):
        """§4.2: ≈65 % median compression rate; 99 % of compressed chains fit
        below the common limit; 96 % of services support brotli."""
        experiment = report["compression"]
        assert experiment.median_synthetic_rate == pytest.approx(0.65, abs=0.10)
        assert experiment.share_below_limit_compressed >= 0.97
        assert experiment.wild_support_share == pytest.approx(0.96, abs=0.05)


class TestSection43Amplification:
    def test_backscatter_amplification_per_hypergiant(self, report):
        """§4.3 / Figure 9: Cloudflare and Google mostly below 10x, Meta up to ≈45x."""
        figure09 = report["figure09"]
        assert figure09.maximum("cloudflare") < 12
        assert figure09.maximum("google") < 12
        assert figure09.maximum("meta") > 15

    def test_meta_prefix_groups(self, report):
        """§4.3: the Meta /24 shows three groups — no service, ≈5x, ≈28x."""
        groups = report["meta_prefix"]
        assert groups.mean_amplification(2) == pytest.approx(5.0, abs=2.0)
        assert groups.mean_amplification(3) == pytest.approx(28.0, abs=10.0)

    def test_disclosure_improved_meta_but_limit_still_exceeded(self, report):
        """Appendix B / Figure 11: after disclosure the mean drops to ≈5x,
        which still exceeds the RFC 9000 limit."""
        figure11 = report["figure11"]
        assert figure11.after.mean_amplification == pytest.approx(5.0, abs=1.5)
        assert figure11.after.mean_amplification > 3.0
        assert figure11.before.max_amplification > figure11.after.max_amplification * 3


class TestAppendixD:
    def test_deployment_stable_across_ranks(self, report):
        """Appendix D / Figure 12: ≈21 % QUIC per rank group, small deviation."""
        figure12 = report["figure12"]
        assert figure12.mean_quic_share == pytest.approx(0.21, abs=0.05)
        assert figure12.quic_share_stddev < 0.05

    def test_handshake_classes_stable_across_ranks(self, report):
        """Appendix D / Figure 13: classes stable; 1-RTT more common at the top."""
        figure13 = report["figure13"]
        top, rest = figure13.one_rtt_share_top_vs_rest()
        assert top >= rest


class TestAppendixE:
    def test_cruise_liner_certificates_are_rare(self, report):
        """Appendix E / Figure 14: most leaves spend <10 % of bytes on SANs and
        only ≈0.1 % combine a high SAN share with an over-limit size."""
        figure14 = report["figure14"]
        assert figure14.share_san_below_10pct > 0.5
        assert figure14.share_high_san_and_over_limit < 0.02
