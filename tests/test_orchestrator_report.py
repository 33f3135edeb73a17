"""Tests for the campaign orchestrator and the full evaluation report."""

import pytest

from repro.analysis.report import build_report, class_shares
from repro.quic.handshake import HandshakeClass
from repro.scanners import MeasurementCampaign
from repro.webpki import PopulationConfig, generate_population


class TestCampaignResults:
    def test_results_are_internally_consistent(self, campaign_results):
        results = campaign_results
        quic_count = len(results.quic_deployments())
        assert len(results.handshakes) == quic_count
        assert len(results.quic_certificates) == quic_count
        assert len(results.compression) == quic_count
        assert results.sweep is not None
        assert len(results.meta_probe_before) == 256
        assert len(results.meta_probe_after) == 256
        assert results.analysis_initial_size == 1362

    def test_all_quic_handshakes_reachable_at_default_size(self, campaign_results):
        # At 1362 bytes, only heavily tunnelled services could drop out; the
        # overwhelming majority must respond.
        reachable = len(campaign_results.reachable_handshakes())
        assert reachable / len(campaign_results.handshakes) > 0.95

    def test_provider_lookup(self, campaign_results):
        deployment = campaign_results.quic_deployments()[0]
        assert campaign_results.provider_of(deployment.domain) == deployment.provider
        assert campaign_results.provider_of("definitely-not-scanned.example") is None

    def test_reduced_carries_every_stage(self, campaign_results):
        reduced = campaign_results.reduced()
        scan = reduced.scan
        assert scan.deployment_count == reduced.population_size == len(
            campaign_results.population
        )
        assert scan.quic_count == len(campaign_results.quic_deployments())
        assert scan.handshake_total == len(campaign_results.handshakes)
        assert scan.reachable_count == len(campaign_results.reachable_handshakes())
        assert scan.funnel.as_dict() == campaign_results.https_scan.funnel.as_dict()
        assert scan.certificate_comparison == campaign_results.certificate_comparison
        assert scan.sweep.observations == campaign_results.sweep.observations
        assert reduced.backscatter is campaign_results.backscatter
        assert reduced.meta_probe_before is campaign_results.meta_probe_before
        assert reduced.meta_probe_after is campaign_results.meta_probe_after
        assert reduced.flight_cache == campaign_results.flight_cache
        assert reduced.analysis_initial_size == campaign_results.analysis_initial_size

    def test_class_shares_sum_to_one(self, campaign_results):
        shares = class_shares(campaign_results)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[HandshakeClass.AMPLIFICATION] > shares[HandshakeClass.ONE_RTT]

    def test_campaign_without_sweep(self):
        population = generate_population(PopulationConfig(size=400, seed=5))
        results = MeasurementCampaign(population=population, run_sweep=False).run()
        assert results.sweep is None
        assert len(results.handshakes) == len(results.quic_deployments())


class TestEvaluationReport:
    def test_report_contains_every_experiment(self, campaign_results):
        report = build_report(campaign_results)
        expected_sections = {
            "funnel", "figure02b", "figure03", "table01", "figure04", "figure05",
            "figure06", "figure07a", "figure07b", "figure08", "table02", "compression",
            "figure09", "meta_prefix", "figure11", "figure12", "figure13", "figure14",
            "table03",
        }
        assert expected_sections <= set(report.keys())
        assert "## figure06" in report.text
        assert "## table03" in report.text
        assert len(report.text) > 4000

    def test_report_without_sweep_omits_figure03(self, campaign_results):
        report = build_report(campaign_results, include_sweep=False)
        assert "figure03" not in report.keys()

    def test_report_sections_accessible_by_key(self, campaign_results):
        report = build_report(campaign_results)
        assert report["figure06"].quic_median < report["figure06"].https_only_median
