"""Benchmark: Figure 11 — Meta per-host amplification before/after disclosure."""

from repro.analysis.figures import figure11


def test_bench_figure11(benchmark, campaign_results):
    result = benchmark(
        figure11.compute, campaign_results.reduced.meta_probe_before, campaign_results.reduced.meta_probe_after
    )
    print()
    print(result.render_text())
    assert result.before.max_amplification > result.after.max_amplification
