"""Benchmark: Figure 6 — certificate chain size distributions by QUIC support."""

from repro.analysis.figures import figure06


def test_bench_figure06(benchmark, reduced_scan):
    result = benchmark(
        figure06.compute_from_counts,
        reduced_scan.quic_chain_size_counts,
        reduced_scan.https_chain_size_counts,
    )
    print()
    print(result.render_text())
    assert result.quic_median < result.https_only_median
    assert 0.2 < result.share_exceeding_limit < 0.5
