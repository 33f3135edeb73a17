"""Benchmark: Table 1 — browser Initial sizes and certificate-compression support."""

from repro.analysis.figures import table01
from repro.tls.cert_compression import CertificateCompressionAlgorithm


def test_bench_table01(benchmark, reduced_scan):
    result = benchmark(
        table01.compute_from_reduction,
        reduced_scan.wild_support_counts,
        reduced_scan.wild_rates,
        reduced_scan.wild_all_three,
        reduced_scan.wild_count,
    )
    print()
    print(result.render_text())
    assert result.support_shares[CertificateCompressionAlgorithm.BROTLI] > 0.85
