"""Benchmark: Figure 8 — mean certificate field sizes by certificate type."""

from repro.analysis.figures import figure08


def test_bench_figure08(benchmark, reduced_scan):
    result = benchmark(
        figure08.compute_from_sums, reduced_scan.field_sums, reduced_scan.field_counts
    )
    print()
    print(result.render_text())
    assert result.large_chain_nonleaf_heaviest
