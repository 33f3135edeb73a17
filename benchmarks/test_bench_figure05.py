"""Benchmark: Figure 5 — TLS vs QUIC payload split of multi-RTT handshakes."""

from repro.analysis.figures import figure05


def test_bench_figure05(benchmark, reduced_scan):
    result = benchmark(
        figure05.compute_from_rows,
        reduced_scan.fig5_rows,
        reduced_scan.fig5_exceeds,
        reduced_scan.fig5_overhead_max,
    )
    print()
    print(result.render_text())
    assert result.share_tls_alone_exceeds > 0.7
