"""Benchmark: Figure 13 — handshake classification per rank group."""

from repro.analysis.figures import figure13


def test_bench_figure13(benchmark, reduced_scan):
    result = benchmark(
        figure13.compute_from_series, reduced_scan.fig13_ranks, reduced_scan.fig13_classes
    )
    print()
    print(result.render_text())
    assert len(result.group_labels) >= 5
