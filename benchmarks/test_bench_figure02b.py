"""Benchmark: Figure 2(b) — CDFs of X.509 certificate field sizes."""

from repro.analysis.figures import figure02b


def test_bench_figure02b(benchmark, reduced_scan):
    result = benchmark(
        figure02b.compute_from_counts,
        reduced_scan.field_size_counts,
        reduced_scan.certificate_count,
    )
    print()
    print(result.render_text())
    assert result.ordering_by_median()[0] == "Extensions"
