"""Tests for the campaign orchestrator and the full evaluation report."""

import pytest

from repro.analysis.report import build_report, class_shares
from repro.quic.handshake import HandshakeClass
from repro.scanners import MeasurementCampaign
from repro.scanners.streaming import provider_of_domain
from repro.webpki import PopulationConfig, generate_population


class TestCampaignResults:
    def test_results_are_internally_consistent(self, campaign_results):
        shard, reduced = campaign_results.shard, campaign_results.reduced
        quic_count = len(campaign_results.quic_deployments())
        assert len(shard.handshakes) == quic_count
        assert len(shard.quic_certificates) == quic_count
        assert len(shard.compression) == quic_count
        assert shard.sweep_observations
        assert len(reduced.meta_probe_before) == 256
        assert len(reduced.meta_probe_after) == 256
        assert reduced.analysis_initial_size == 1362

    def test_all_quic_handshakes_reachable_at_default_size(self, campaign_results):
        # At 1362 bytes, only heavily tunnelled services could drop out; the
        # overwhelming majority must respond.
        handshakes = campaign_results.shard.handshakes
        reachable = sum(1 for o in handshakes if o.reachable)
        assert reachable / len(handshakes) > 0.95

    def test_provider_lookup(self, campaign_results):
        lookup = campaign_results.population.deployment
        deployment = campaign_results.quic_deployments()[0]
        assert provider_of_domain(deployment.domain, lookup) == deployment.provider
        assert provider_of_domain("definitely-not-scanned.example", lookup) is None

    def test_reduced_carries_every_stage(self, campaign_results):
        shard, reduced = campaign_results.shard, campaign_results.reduced
        scan = reduced.scan
        assert scan.deployment_count == reduced.population_size == len(
            campaign_results.population
        )
        assert scan.quic_count == len(campaign_results.quic_deployments())
        assert scan.handshake_total == len(shard.handshakes)
        assert scan.reachable_count == sum(1 for o in shard.handshakes if o.reachable)
        assert scan.funnel.as_dict() == shard.funnel.as_dict()
        assert scan.certificate_comparison == shard.comparison
        assert scan.sweep.observations == shard.sweep_observations
        assert reduced.flight_cache.hits >= shard.flight_cache.hits
        assert reduced.analysis_initial_size == 1362

    def test_flight_cache_counts_like_one_streamed_shard(self):
        """Serial counters come from the shard's own cache plus stage 5's, so
        they equal a one-shard streamed run and do not depend on what the
        process simulated before."""
        config = PopulationConfig(size=600, seed=11)
        kwargs = dict(run_sweep=True, sweep_sample_size=50, spoofed_targets_per_provider=10)

        def serial():
            population = generate_population(config)
            return MeasurementCampaign(population=population, **kwargs).run()

        cold = serial().reduced.flight_cache
        streamed = MeasurementCampaign(
            population_config=config, stream=True, shard_size=config.size, **kwargs
        ).run()
        assert cold.hits + cold.misses > 0
        assert streamed.flight_cache == cold
        assert serial().reduced.flight_cache == cold

    def test_class_shares_sum_to_one(self, campaign_results):
        shares = class_shares(campaign_results)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[HandshakeClass.AMPLIFICATION] > shares[HandshakeClass.ONE_RTT]

    def test_campaign_without_sweep(self):
        population = generate_population(PopulationConfig(size=400, seed=5))
        results = MeasurementCampaign(population=population, run_sweep=False).run()
        assert results.reduced.sweep is None
        assert results.shard.sweep_observations == ()
        assert len(results.shard.handshakes) == len(results.quic_deployments())


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
