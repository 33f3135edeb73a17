"""Benchmark: Figure 12 — QUIC / HTTPS-only deployment shares per rank group."""

from repro.analysis.figures import figure12


def test_bench_figure12(benchmark, reduced_scan):
    result = benchmark(figure12.compute_from_category_runs, reduced_scan.category_runs)
    print()
    print(result.render_text())
    assert 0.15 < result.mean_quic_share < 0.30
