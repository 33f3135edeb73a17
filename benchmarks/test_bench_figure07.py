"""Benchmark: Figure 7 — top-10 parent certificate chains (QUIC and HTTPS-only)."""

from repro.analysis.figures import figure07


def test_bench_figure07a(benchmark, reduced_scan):
    result = benchmark(
        figure07.compute_from_groups,
        reduced_scan.parent_chain_groups["QUIC"],
        "QUIC services",
        reduced_scan.parent_chain_totals["QUIC"],
    )
    print()
    print(result.render_text())
    assert result.top10_coverage > 0.9
    assert "Cloudflare" in result.rows[0].label


def test_bench_figure07b(benchmark, reduced_scan):
    result = benchmark(
        figure07.compute_from_groups,
        reduced_scan.parent_chain_groups["HTTPS-only"],
        "HTTPS-only services",
        reduced_scan.parent_chain_totals["HTTPS-only"],
    )
    print()
    print(result.render_text())
    assert 0.55 < result.top10_coverage < 0.9
