"""Tests for the handshake-centric figures (3, 4, 5, 12, 13)."""

from array import array

import pytest

from repro.analysis.figures import figure03, figure04, figure05, figure12, figure13
from repro.analysis.report import build_report
from repro.quic.handshake import HandshakeClass
from repro.scanners import MeasurementCampaign
from repro.webpki.deployment import ServiceCategory
from repro.webpki.population import InternetPopulation


class TestFigure03:
    def test_amplification_independent_of_initial_size(self, campaign_results):
        result = figure03.compute(campaign_results.scan.sweep)
        sizes = result.initial_sizes()
        counts = [result.counts[s].get(HandshakeClass.AMPLIFICATION, 0) for s in sizes]
        assert max(counts) - min(counts) <= max(3, 0.1 * max(counts))

    def test_larger_initials_shift_multi_rtt_towards_one_rtt(self, campaign_results):
        result = figure03.compute(campaign_results.scan.sweep)
        sizes = result.initial_sizes()
        first, last = sizes[0], sizes[-1]
        assert result.share(last, HandshakeClass.ONE_RTT) >= result.share(first, HandshakeClass.ONE_RTT)
        assert result.share(last, HandshakeClass.MULTI_RTT) <= result.share(first, HandshakeClass.MULTI_RTT)

    def test_table_and_text(self, campaign_results):
        result = figure03.compute(campaign_results.scan.sweep)
        table = result.as_table()
        assert len(table.to_csv().splitlines()) == 1 + len(result.initial_sizes())
        assert "Figure 3" in result.render_text()


class TestFigure04:
    def test_amplification_factors_small_but_above_three(self, reduced_scan):
        result = figure04.compute_from_counts(reduced_scan.amp_factor_counts)
        assert result.service_count > 50
        assert 3.0 < result.median < 6.0
        assert result.maximum < 8.0
        assert "Figure 4" in result.render_text()

    def test_empty_observations(self):
        result = figure04.compute_from_counts({})
        assert result.service_count == 0


class TestFigure05:
    def test_tls_alone_exceeds_limit_for_most_multi_rtt(self, reduced_scan):
        result = figure05.compute_from_rows(
            reduced_scan.fig5_rows, reduced_scan.fig5_exceeds, reduced_scan.fig5_overhead_max
        )
        assert result.handshake_count > 30
        # Entries are sorted ascending by total bytes (the ranked x-axis).
        totals = [total for _, total, _ in result.entries]
        assert totals == sorted(totals)
        assert result.max_quic_overhead > 0
        assert "Figure 5" in result.render_text()


class TestFigure12:
    def test_shares_stable_across_rank_groups(self, reduced_scan):
        result = figure12.compute_from_category_runs(reduced_scan.category_runs)
        assert len(result.group_labels) == 10
        assert "Figure 12" in result.render_text()

    def test_empty_input(self):
        result = figure12.compute_from_category_runs([])
        assert result.group_labels == ()


class TestFigure13:
    def test_classes_stable_across_rank_groups(self, reduced_scan):
        # Five rank groups keep the per-group sample large enough for the
        # stability check to be meaningful at the test population size.
        result = figure13.compute_from_series(
            reduced_scan.fig13_ranks, reduced_scan.fig13_classes, group_count=5
        )
        assert len(result.group_labels) >= 4
        amplification_shares = [
            result.share(label, HandshakeClass.AMPLIFICATION) for label in result.group_labels
        ]
        assert max(amplification_shares) - min(amplification_shares) < 0.35
        assert "Figure 13" in result.render_text()

    def test_empty_observations(self):
        result = figure13.compute_from_series(array("q"), b"")
        assert result.group_labels == ()


def _hand_assembled(population, deployments):
    return InternetPopulation(
        config=population.config, tranco=population.tranco, deployments=deployments
    )


def _serial_report(population):
    return build_report(
        MeasurementCampaign(population=population, spoofed_targets_per_provider=10).run()
    )


class TestHandAssembledPopulations:
    """Figures 12 and 13 rank-group any population, not just generated ones.

    Generated populations are rank-contiguous and ascending; a hand-assembled
    one may hold sparse ranks or list them in any order, and must still
    reduce to the figures its deployments and observations denote.
    """

    def test_sparse_ranks_fill_rank_groups(self, small_population):
        subset = [
            d for d in small_population.deployments if d.category is ServiceCategory.QUIC
        ]
        result = _serial_report(_hand_assembled(small_population, subset))["figure12"]
        assert sum(result.group_sizes) == len(subset)
        last_start, last_end = result.group_labels[-1].strip("[)").split(", ")
        assert int(last_start) <= max(d.rank for d in subset) < int(last_end)
        assert result.quic_shares == (1.0,) * len(result.group_labels)

    def test_category_run_encoding(self, small_population):
        deployments = small_population.deployments[:50]
        start, codes = figure12.encode_category_run(deployments, empty_start=1)
        assert (start, codes) == (
            deployments[0].rank,
            bytes(figure12.CATEGORY_CODES[d.category] for d in deployments),
        )
        sparse = deployments[::5]
        start, codes = figure12.encode_category_run(list(reversed(sparse)), empty_start=1)
        assert start == sparse[0].rank and len(codes) == sparse[-1].rank - start + 1
        assert len(codes) - codes.count(figure12.RANK_GAP_CODE) == len(sparse)
        assert figure12.encode_category_run([], empty_start=7) == (7, b"")
        with pytest.raises(ValueError, match="more than one deployment"):
            figure12.encode_category_run([deployments[1], deployments[0], deployments[1]], 1)

    def test_list_order_does_not_move_rank_groups(self, small_population, campaign_results):
        reversed_population = _hand_assembled(
            small_population, list(reversed(small_population.deployments))
        )
        reversed_report = _serial_report(reversed_population)
        report = build_report(campaign_results)
        for name in ("figure12", "figure13"):
            assert reversed_report[name].render_text() == report[name].render_text()
