"""Full-evaluation report generation.

``build_report`` runs every figure/table module against one campaign's results
and returns a single text report (also used to generate EXPERIMENTS.md), so
"regenerate the paper's evaluation" is one function call.

Every section is computed from one contract, the reduced
:class:`~repro.scanners.streaming.ReducedCampaignResults`.  A serial
:class:`~repro.scanners.orchestrator.CampaignResults` is accepted too and
read through its ``reduced`` field, so serial and streamed campaigns render
byte-identical reports (pinned by ``tests/test_streaming_reduction.py`` and
the golden digests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from ..quic.handshake import HandshakeClass
from ..scanners.orchestrator import CampaignResults
from ..scanners.streaming import ReducedCampaignResults
from ..tls.cert_compression import CertificateCompressionAlgorithm
from .figures import (
    compression,
    figure02b,
    figure03,
    figure04,
    figure05,
    figure06,
    figure07,
    figure08,
    figure09,
    figure11,
    figure12,
    figure13,
    figure14,
    funnel,
    meta_prefix,
    table01,
    table02,
    table03,
)


@dataclass
class EvaluationReport:
    """All computed figure/table results plus a rendered text form."""

    sections: Dict[str, object]
    text: str

    def __getitem__(self, key: str):
        return self.sections[key]

    def keys(self):
        return self.sections.keys()


AnyCampaignResults = Union[CampaignResults, ReducedCampaignResults]


def _reduced(results: AnyCampaignResults) -> ReducedCampaignResults:
    """Serial object results carry their reduction in ``reduced``."""
    return results.reduced if isinstance(results, CampaignResults) else results


def class_shares(results: AnyCampaignResults) -> Dict[HandshakeClass, float]:
    """Convenience: handshake class shares at the default Initial size."""
    scan = _reduced(results).scan
    if not scan.reachable_count:
        return {}
    return {
        handshake_class: scan.class_counts.get(handshake_class, 0) / scan.reachable_count
        for handshake_class in HandshakeClass
        if handshake_class is not HandshakeClass.UNREACHABLE
    }


def _sections(results: ReducedCampaignResults, include_sweep: bool) -> Dict[str, object]:
    """Every figure/table section, in report order, from the reduced contract."""
    scan = results.scan
    brotli = CertificateCompressionAlgorithm.BROTLI

    sections: Dict[str, object] = {}
    sections["funnel"] = funnel.compute(scan.funnel, scan.quic_count)
    sections["figure02b"] = figure02b.compute_from_counts(
        scan.field_size_counts, scan.certificate_count
    )
    if include_sweep and scan.sweep is not None:
        sections["figure03"] = figure03.compute(scan.sweep)
    sections["table01"] = table01.compute_from_reduction(
        scan.wild_support_counts, scan.wild_rates, scan.wild_all_three, scan.wild_count
    )
    sections["figure04"] = figure04.compute_from_counts(scan.amp_factor_counts)
    sections["figure05"] = figure05.compute_from_rows(
        scan.fig5_rows, scan.fig5_exceeds, scan.fig5_overhead_max
    )
    sections["figure06"] = figure06.compute_from_counts(
        scan.quic_chain_size_counts, scan.https_chain_size_counts
    )
    sections["figure07a"] = figure07.compute_from_groups(
        scan.parent_chain_groups["QUIC"], "QUIC services", scan.parent_chain_totals["QUIC"]
    )
    sections["figure07b"] = figure07.compute_from_groups(
        scan.parent_chain_groups["HTTPS-only"],
        "HTTPS-only services",
        scan.parent_chain_totals["HTTPS-only"],
    )
    sections["figure08"] = figure08.compute_from_sums(scan.field_sums, scan.field_counts)
    sections["table02"] = table02.compute_from_counters(
        scan.key_alg_counters, scan.key_alg_totals
    )
    sections["compression"] = compression.compute_from_reduction(
        scan.synth_rates,
        scan.synth_below_uncompressed,
        scan.synth_below_compressed,
        scan.synth_count,
        scan.wild_rates[brotli],
        scan.wild_support_counts.get(brotli, 0),
        scan.wild_count,
    )
    sections["figure09"] = figure09.compute(results.backscatter)
    sections["meta_prefix"] = meta_prefix.compute(results.meta_probe_before)
    sections["figure11"] = figure11.compute(results.meta_probe_before, results.meta_probe_after)
    sections["figure12"] = figure12.compute_from_category_runs(scan.category_runs)
    sections["figure13"] = figure13.compute_from_series(scan.fig13_ranks, scan.fig13_classes)
    sections["figure14"] = figure14.compute_from_points(
        scan.fig14_leaf_sizes, scan.fig14_san_shares
    )
    sections["table03"] = table03.compute()
    return sections


def build_report(results: AnyCampaignResults, include_sweep: bool = True) -> EvaluationReport:
    """Compute every experiment of the evaluation and render a text report."""
    results = _reduced(results)
    sections = _sections(results, include_sweep)

    parts: List[str] = ["QUIC / TLS certificate interplay — reproduced evaluation", "=" * 60]
    # Scenario stamp: any non-identity what-if scenario announces itself in the
    # header.  The identity baseline renders the legacy header so the golden
    # artefact digests stay byte-for-byte pinned.
    scenario = results.scenario
    if scenario is not None and not scenario.is_identity:
        parts.append(f"scenario: {scenario.name} [{scenario.fingerprint()[:12]}]")
        if scenario.description:
            parts.append(f"  {scenario.description}")
    for name, section in sections.items():
        render = getattr(section, "render_text", None)
        if render is None:
            continue
        parts.append("")
        parts.append(f"## {name}")
        parts.append(render())
    return EvaluationReport(sections=sections, text="\n".join(parts))
