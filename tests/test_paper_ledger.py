"""The paper ledger: every headline claim of the paper, checked in one table.

Each :class:`Claim` row names where the paper makes the claim, the paper's
value, the band the reproduction must land in and an extractor that reads the
shared campaign (``tests/conftest.py``: 1 500 domains, seed 42, a 120-target
sweep).  Bands are open intervals; ``None`` leaves a side unbounded.  The
substrate is a synthetic population, not the 2022 Internet, so a band is a
guard against structural regressions (broken amplification accounting,
coalescing or chain generation), not a fit.  Where the paper states a value,
its band holds it.

Extractors read the reduced contract (:class:`ReducedCampaignResults`) through
``build_report(...).sections`` or ``class_shares``, so each row checks what
the report prints.  One row reads per-observation objects (see
:func:`_cloudflare_share_of_amplifying`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Tuple

import pytest

from repro.analysis.report import build_report, class_shares
from repro.core.limits import COMMON_AMPLIFICATION_LIMITS
from repro.quic.handshake import HandshakeClass
from repro.tls.cert_compression import CertificateCompressionAlgorithm

AMPLIFICATION = HandshakeClass.AMPLIFICATION
MULTI_RTT = HandshakeClass.MULTI_RTT
ONE_RTT = HandshakeClass.ONE_RTT
BROTLI = CertificateCompressionAlgorithm.BROTLI

#: The Figure 3 sweep point nearest the paper's 1362-byte analysis Initial.
SWEEP_ANALYSIS_SIZE = 1360

#: An open interval; ``None`` leaves a side unbounded.
Band = Tuple[Optional[float], Optional[float]]


@dataclass(frozen=True)
class Claim:
    id: str
    where: str
    claim: str
    paper: Optional[float]  # None where the paper states a direction, not a value
    band: Band
    extract: Callable[[SimpleNamespace], float]


def _cloudflare_share_of_amplifying(sources) -> float:
    """§4.1 attributes amplifying handshakes to providers, which the reduced
    contract does not record per handshake, so this row reads the shared
    campaign's per-observation shard (``campaign_shard``)."""
    amplifying = [
        o for o in sources.shard.handshakes
        if o.reachable and o.handshake_class is AMPLIFICATION
    ]
    return sum(1 for o in amplifying if o.provider == "cloudflare") / len(amplifying)


def _top_one_rtt_excess(sources) -> float:
    top, rest = sources.sections["figure13"].one_rtt_share_top_vs_rest()
    return top - rest


LEDGER = (
    # §3 — the measurement funnel.
    Claim("funnel-resolved", "§3.1", "names that resolve", 0.976, (0.946, 1.0),
          lambda s: s.sections["funnel"].resolved_share),
    Claim("funnel-a-record", "§3.1", "names with an A record", 0.866, (0.816, 0.916),
          lambda s: s.sections["funnel"].a_record_share),
    Claim("funnel-quic", "§3.2", "names that serve QUIC", 0.21, (0.16, 0.26),
          lambda s: s.sections["funnel"].quic_share),
    # §4.1 — handshake classes at the 1362-byte Initial.
    Claim("s41-amplification", "§4.1", "handshakes that amplify", 0.61, (0.51, 0.71),
          lambda s: s.shares[AMPLIFICATION]),
    Claim("s41-multi-rtt", "§4.1", "handshakes that need several RTTs", 0.38, (0.28, 0.48),
          lambda s: s.shares[MULTI_RTT]),
    Claim("s41-one-rtt", "§4.1", "1-RTT handshakes are rare", 0.0075, (None, 0.05),
          lambda s: s.shares[ONE_RTT]),
    Claim("s41-retry", "§4.1", "Retry handshakes are rare", 0.0007, (None, 0.01),
          lambda s: s.shares[HandshakeClass.RETRY]),
    Claim("s41-cloudflare", "§4.1", "amplifying handshakes from Cloudflare's stack",
          0.96, (0.9, None), _cloudflare_share_of_amplifying),
    Claim("fig3-amplification", "Figure 3", "amplifying share near 1362 B", 0.61, (0.49, 0.73),
          lambda s: s.sections["figure03"].share(SWEEP_ANALYSIS_SIZE, AMPLIFICATION)),
    Claim("fig3-multi-rtt", "Figure 3", "multi-RTT share near 1362 B", 0.38, (0.26, 0.50),
          lambda s: s.sections["figure03"].share(SWEEP_ANALYSIS_SIZE, MULTI_RTT)),
    Claim("fig3-one-rtt", "Figure 3", "1-RTT share near 1362 B", 0.0075, (None, 0.06),
          lambda s: s.sections["figure03"].share(SWEEP_ANALYSIS_SIZE, ONE_RTT)),
    Claim("fig3-reachability-drop", "Figure 3", "large Initials lose a little reachability",
          0.012, (0.0, 0.10), lambda s: s.sections["figure03"].reachability_drop()),
    Claim("fig4-amplifying", "Figure 4", "handshakes whose first RTT exceeds the limit",
          0.61, (0.51, 0.71),
          lambda s: s.sections["figure04"].service_count / s.reduced.scan.reachable_count),
    Claim("fig4-below-6x", "Figure 4", "first-RTT amplification stays below ≈6×", None,
          (0.95, None), lambda s: s.sections["figure04"].share_below(6.0)),
    # §4.2 — certificates.
    Claim("fig5-tls-alone", "Figure 5", "multi-RTT handshakes whose TLS bytes alone "
          "exceed the limit", 0.87, (0.75, 1.0),
          lambda s: s.sections["figure05"].share_tls_alone_exceeds),
    Claim("fig6-quic-median", "Figure 6", "median QUIC chain size (B)", 2329,
          (1746.75, 2911.25), lambda s: s.sections["figure06"].quic_median),
    Claim("fig6-https-median", "Figure 6", "median HTTPS-only chain size (B)", 4022,
          (3418.7, 4600), lambda s: s.sections["figure06"].https_only_median),
    Claim("fig6-over-limit", "Figure 6", "chains above 3×1357 B", 0.35, (0.27, 0.43),
          lambda s: s.sections["figure06"].share_exceeding_limit),
    Claim("fig6-tail", "Figure 6", "HTTPS-only chains reach the 18–38 kB tail (B)", None,
          (15_000, None), lambda s: s.sections["figure06"].https_only_maximum),
    Claim("fig7-quic-top10", "Figure 7", "QUIC services on the top-10 parent chains",
          0.965, (0.925, 1.005), lambda s: s.sections["figure07a"].top10_coverage),
    Claim("fig7-https-top10", "Figure 7", "HTTPS-only services on the top-10 parent chains",
          0.72, (0.60, 0.84), lambda s: s.sections["figure07b"].top10_coverage),
    # An integer count: the open band (2, 10) admits 3..9.
    Claim("fig7-over-limit", "Figure 7", "top-10 QUIC chains above the smallest "
          "common limit", 7, (2, 10),
          lambda s: s.sections["figure07a"].rows_exceeding(min(COMMON_AMPLIFICATION_LIMITS))),
    Claim("table1-brotli-support", "Table 1 / §4.2", "services that support brotli",
          0.96, (0.91, 1.01), lambda s: s.sections["table01"].support_shares[BROTLI]),
    Claim("table1-brotli-rate", "Table 1 / §4.2", "mean brotli compression rate in the wild",
          0.73, (0.63, 0.83), lambda s: s.sections["table01"].mean_rates[BROTLI]),
    Claim("table1-all-three", "Table 1", "services that support all three algorithms",
          0.0005, (None, 0.02), lambda s: s.sections["table01"].all_three_share),
    Claim("table2-quic-ecdsa", "Table 2", "QUIC leaves with ECDSA keys", 0.789,
          (0.639, 0.939), lambda s: s.sections["table02"].ecdsa_share("QUIC", "Leaf")),
    Claim("table2-https-rsa", "Table 2", "HTTPS-only leaves with RSA keys", 0.895,
          (0.8, 1.015), lambda s: s.sections["table02"].rsa_share("HTTPS-only", "Leaf")),
    Claim("s42-wild-support", "§4.2", "services that support brotli", 0.96, (0.91, 1.01),
          lambda s: s.sections["compression"].wild_support_share),
    Claim("s42-wild-rate", "§4.2", "mean brotli compression rate in the wild", 0.73,
          (0.63, 0.83), lambda s: s.sections["compression"].wild_mean_rate),
    Claim("s42-compression-rate", "§4.2", "median synthetic compression rate", 0.65,
          (0.55, 0.75), lambda s: s.sections["compression"].median_synthetic_rate),
    Claim("s42-compressed-below-limit", "§4.2", "compressed chains below the common limit",
          0.99, (0.97, None),
          lambda s: s.sections["compression"].share_below_limit_compressed),
    # §4.3 and Appendix B — amplification without validation.
    Claim("fig9-cloudflare-max", "Figure 9", "Cloudflare mostly below 10×", None, (None, 12),
          lambda s: s.sections["figure09"].maximum("cloudflare")),
    Claim("fig9-google-max", "Figure 9", "Google mostly below 10×", None, (None, 12),
          lambda s: s.sections["figure09"].maximum("google")),
    Claim("fig9-meta-max", "Figure 9", "Meta amplifies up to 45×", 45, (15, None),
          lambda s: s.sections["figure09"].maximum("meta")),
    Claim("s43-meta-group2", "§4.3", "Meta /24 one-flight group", 5.0, (3.5, 7.0),
          lambda s: s.sections["meta_prefix"].mean_amplification(2)),
    Claim("s43-meta-group3", "§4.3", "Meta /24 retransmission-storm group", 28.0, (20, 38),
          lambda s: s.sections["meta_prefix"].mean_amplification(3)),
    Claim("fig11-before-max", "Figure 11", "before disclosure, up to ≈28×", 28.0, (20, None),
          lambda s: s.sections["figure11"].before.max_amplification),
    Claim("fig11-after-mean", "Figure 11", "after disclosure, a homogeneous ≈5×", 5.0,
          (3.5, 6.5), lambda s: s.sections["figure11"].after.mean_amplification),
    Claim("fig11-after-above-limit", "Figure 11", "after disclosure, hosts still above 3×",
          None, (0.9, None), lambda s: s.sections["figure11"].after.share_above(3.0)),
    Claim("fig11-improvement", "Figure 11", "maximum before over maximum after", None,
          (3, None), lambda s: s.sections["figure11"].improvement_factor),
    # Appendices D and E.
    Claim("fig12-quic-share", "Figure 12", "QUIC share per rank group", 0.21, (0.16, 0.26),
          lambda s: s.sections["figure12"].mean_quic_share),
    Claim("fig12-stddev", "Figure 12", "QUIC share spread across rank groups", 0.03,
          (None, 0.05), lambda s: s.sections["figure12"].quic_share_stddev),
    Claim("fig13-top-one-rtt", "Figure 13", "1-RTT more common in the top group "
          "(3.02 % vs <0.95 %)", None, (0.0, None), _top_one_rtt_excess),
    Claim("fig14-san-below-10pct", "Figure 14", "most leaves spend <10 % of bytes on SANs",
          None, (0.5, None), lambda s: s.sections["figure14"].share_san_below_10pct),
    Claim("fig14-cruise-liners", "Figure 14", "high-SAN leaves above a common limit",
          0.001, (None, 0.02),
          lambda s: s.sections["figure14"].share_high_san_and_over_limit),
)


@pytest.fixture(scope="module")
def sources(campaign_results, campaign_shard):
    return SimpleNamespace(
        reduced=campaign_results,
        sections=build_report(campaign_results).sections,
        shares=class_shares(campaign_results),
        shard=campaign_shard,
    )


def _inside(value: float, band: Band) -> bool:
    low, high = band
    return (low is None or value > low) and (high is None or value < high)


@pytest.mark.parametrize("claim", LEDGER, ids=[claim.id for claim in LEDGER])
def test_claim(claim, sources):
    value = claim.extract(sources)
    assert _inside(value, claim.band), (
        f"{claim.where}: {claim.claim} reads {value!r}, outside the open band "
        f"{claim.band} (paper: {claim.paper})"
    )


def test_paper_values_lie_in_their_bands():
    for claim in LEDGER:
        assert claim.paper is None or _inside(claim.paper, claim.band), claim.id
    assert len({claim.id for claim in LEDGER}) == len(LEDGER)
