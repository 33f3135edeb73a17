"""Tests for the amplification figures (9, 11, Meta groups) and tables (1, 3), funnel, compression."""

from repro.analysis.figures import (
    figure09,
    figure11,
    funnel,
    meta_prefix,
    table01,
    table03,
)
from repro.analysis.report import build_report


class TestFigure09:
    def test_meta_amplifies_most(self, campaign_results):
        result = figure09.compute(campaign_results.reduced.backscatter)
        assert {"cloudflare", "google", "meta"} <= set(result.providers())
        assert result.maximum("meta") > result.maximum("cloudflare")
        for provider in ("cloudflare", "google", "meta"):
            assert result.share_exceeding(provider, 3.0) > 0.5
        assert "Figure 9" in result.render_text()


class TestMetaPrefix:
    def test_three_groups_with_expected_factors(self, campaign_results):
        result = meta_prefix.compute(campaign_results.reduced.meta_probe_before)
        assert result.probed_addresses == 256
        assert result.count(1) > 100
        assert result.count(2) > 10
        assert result.count(3) > 5
        assert "group 3" in result.render_text()


class TestFigure11:
    def test_disclosure_reduces_amplification(self, campaign_results):
        result = figure11.compute(
            campaign_results.reduced.meta_probe_before, campaign_results.reduced.meta_probe_after
        )
        assert result.after.max_amplification < 8
        assert len(result.before.per_octet) == len(result.after.per_octet)
        assert "Figure 11" in result.render_text()


class TestTable01:
    def test_browser_rows_and_support(self, campaign_results, reduced_scan):
        result = table01.compute_from_reduction(
            reduced_scan.wild_support_counts,
            reduced_scan.wild_rates,
            reduced_scan.wild_all_three,
            reduced_scan.wild_count,
        )
        assert result.scanned_services == len(campaign_results.shard.compression)
        text = result.render_text()
        assert "Firefox" in text and "1357" in text and "no QUIC" in text


class TestTable03:
    def test_history_rows(self):
        result = table03.compute()
        assert len(result.rows) == 5
        assert result.byte_limited_since == "Draft 15 - 32"
        assert "Table 3" in result.render_text()


class TestFunnel:
    def test_funnel_shares(self, campaign_results):
        result = funnel.compute(
            campaign_results.shard.funnel, len(campaign_results.population.quic_services())
        )
        assert len(result.as_table().to_csv().splitlines()) == 1 + 7
        assert "funnel" in result.render_text().lower()


class TestCompressionExperiment:
    def test_synthetic_and_wild_rates(self, campaign_results):
        result = build_report(campaign_results)["compression"]
        assert result.synthetic.share_below_limit_uncompressed < result.share_below_limit_compressed
        assert "Compression experiment" in result.render_text()
