"""Benchmark: Figure 9 — amplification factors of incomplete (spoofed) handshakes."""

from repro.analysis.figures import figure09


def test_bench_figure09(benchmark, campaign_results):
    result = benchmark(figure09.compute, campaign_results.reduced.backscatter)
    print()
    print(result.render_text())
    assert result.maximum("meta") > result.maximum("cloudflare")
