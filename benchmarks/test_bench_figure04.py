"""Benchmark: Figure 4 — first-RTT amplification factors of complete handshakes."""

from repro.analysis.figures import figure04


def test_bench_figure04(benchmark, reduced_scan):
    result = benchmark(figure04.compute_from_counts, reduced_scan.amp_factor_counts)
    print()
    print(result.render_text())
    assert 3.0 < result.median < 6.0
