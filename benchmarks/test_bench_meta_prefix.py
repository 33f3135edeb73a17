"""Benchmark: §4.3 — active scan of the Meta /24 (three response groups)."""

from repro.analysis.figures import meta_prefix


def test_bench_meta_prefix(benchmark, campaign_results):
    result = benchmark(meta_prefix.compute, campaign_results.reduced.meta_probe_before)
    print()
    print(result.render_text())
    assert result.mean_amplification(3) > result.mean_amplification(2) > 3.0
