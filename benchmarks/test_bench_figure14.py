"""Benchmark: Figure 14 — cruise-liner certificates among QUIC services."""

from repro.analysis.figures import figure14


def test_bench_figure14(benchmark, reduced_scan):
    result = benchmark(
        figure14.compute_from_points,
        reduced_scan.fig14_leaf_sizes,
        reduced_scan.fig14_san_shares,
    )
    print()
    print(result.render_text())
    assert result.share_san_below_10pct > 0.5
