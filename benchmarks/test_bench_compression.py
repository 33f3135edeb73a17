"""Benchmark: the §4.2 certificate-compression experiment (synthetic + wild)."""

from repro.analysis.figures import compression
from repro.tls.cert_compression import CertificateCompressionAlgorithm


def test_bench_compression(benchmark, reduced_scan):
    brotli = CertificateCompressionAlgorithm.BROTLI
    result = benchmark(
        compression.compute_from_reduction,
        reduced_scan.synth_rates,
        reduced_scan.synth_below_uncompressed,
        reduced_scan.synth_below_compressed,
        reduced_scan.synth_count,
        reduced_scan.wild_rates[brotli],
        reduced_scan.wild_support_counts[brotli],
        reduced_scan.wild_count,
    )
    print()
    print(result.render_text())
    assert result.share_below_limit_compressed > 0.95
    assert 0.5 < result.median_synthetic_rate < 0.85
