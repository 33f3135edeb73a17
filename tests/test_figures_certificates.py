"""Tests for the certificate-centric figures (2b, 6, 7, 8, 14, Table 2)."""

import pytest

from repro.analysis.figures import figure02b, figure06, figure07, figure08, figure14, table02
from repro.core.limits import LARGER_COMMON_LIMIT
from repro.x509.keys import KeyAlgorithm


def _figure07(scan, group: str, label: str):
    return figure07.compute_from_groups(
        scan.parent_chain_groups[group], label, scan.parent_chain_totals[group]
    )


def _table02(scan):
    return table02.compute_from_counters(scan.key_alg_counters, scan.key_alg_totals)


class TestFigure02b:
    def test_extensions_are_the_largest_field(self, small_population, reduced_scan):
        certificates = [
            certificate
            for deployment in small_population.deployments
            if deployment.delivered_chain is not None
            for certificate in deployment.delivered_chain.certificates
        ]
        result = figure02b.compute_from_counts(
            reduced_scan.field_size_counts, reduced_scan.certificate_count
        )
        assert result.certificate_count == len(certificates) > 1000
        ordering = result.ordering_by_median()
        assert ordering[0] == "Extensions"
        assert result.median("Subject") < result.median("PublicKeyInfo")
        assert "Figure 2(b)" in result.render_text()


class TestFigure06:
    def test_quic_chains_smaller_than_https_only(self, reduced_scan):
        result = figure06.compute_from_counts(
            reduced_scan.quic_chain_size_counts, reduced_scan.https_chain_size_counts
        )
        assert result.quic_median < result.https_only_median
        assert result.limit_bytes == LARGER_COMMON_LIMIT

    def test_empty_inputs(self):
        result = figure06.compute_from_counts({}, {})
        assert result.share_exceeding_limit == 0.0


class TestFigure07:
    def test_quic_consolidation_stronger_than_https_only(self, reduced_scan):
        quic = _figure07(reduced_scan, "QUIC", "QUIC services")
        https = _figure07(reduced_scan, "HTTPS-only", "HTTPS-only services")
        assert quic.top10_coverage > https.top10_coverage

    def test_cloudflare_is_the_top_quic_chain(self, reduced_scan):
        quic = _figure07(reduced_scan, "QUIC", "QUIC services")
        top_row = quic.rows[0]
        assert "Cloudflare" in top_row.label
        assert top_row.share == pytest.approx(0.6, abs=0.08)
        assert top_row.parent_chain_size < 1500

    def test_dominant_chain_stays_below_the_limit(self, reduced_scan):
        quic = _figure07(reduced_scan, "QUIC", "QUIC services")
        assert not quic.rows[0].exceeds_limit(LARGER_COMMON_LIMIT)

    def test_row_size_accounting(self, reduced_scan):
        quic = _figure07(reduced_scan, "QUIC", "QUIC services")
        for row in quic.rows:
            assert row.typical_total_size == row.parent_chain_size + row.median_leaf_size
            assert row.max_leaf_size >= row.median_leaf_size
            assert row.service_count > 0

    def test_render_text(self, reduced_scan):
        quic = _figure07(reduced_scan, "QUIC", "QUIC services")
        assert "top-10 parent chains" in quic.render_text()


class TestFigure08:
    def test_nonleaf_of_large_chains_dominate(self, reduced_scan):
        result = figure08.compute_from_sums(reduced_scan.field_sums, reduced_scan.field_counts)
        assert result.large_chain_nonleaf_heaviest
        large_nonleaf = result.group(">4000, Non-leaf")
        small_nonleaf = result.group("<=4000, Non-leaf")
        assert large_nonleaf.public_key_info + large_nonleaf.signature > (
            small_nonleaf.public_key_info + small_nonleaf.signature
        )
        assert all(result.counts[label] > 0 for label in result.counts)

    def test_render_text_lists_all_groups(self, reduced_scan):
        text = figure08.compute_from_sums(
            reduced_scan.field_sums, reduced_scan.field_counts
        ).render_text()
        assert ">4000, Non-leaf" in text and "<=4000, Leaf" in text


class TestTable02:
    def test_quic_leaves_mostly_ecdsa(self, reduced_scan):
        result = _table02(reduced_scan)
        assert result.ecdsa_share("QUIC", "Leaf") > result.ecdsa_share("HTTPS-only", "Leaf")
        assert result.ecdsa_share("QUIC", "Non-leaf") > result.ecdsa_share("HTTPS-only", "Non-leaf")

    def test_shares_sum_to_one_per_group(self, reduced_scan):
        result = _table02(reduced_scan)
        for group in ("QUIC", "HTTPS-only"):
            for cert_type in ("Leaf", "Non-leaf"):
                total = sum(
                    result.share(group, cert_type, algorithm)
                    for algorithm in KeyAlgorithm
                )
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_render_text(self, reduced_scan):
        assert "Table 2" in _table02(reduced_scan).render_text()


class TestFigure14:
    def test_cruise_liners_are_rare(self, reduced_scan):
        result = figure14.compute_from_points(
            reduced_scan.fig14_leaf_sizes, reduced_scan.fig14_san_shares
        )
        assert result.leaf_count > 100
        assert 0.0 < result.top1pct_san_share_threshold < 1.0

    def test_empty_input(self):
        result = figure14.compute_from_points([], [])
        assert result.leaf_count == 0
