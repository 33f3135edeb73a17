"""Benchmark: the §3.1/§3.2 measurement funnel (names → certificates → QUIC)."""

from repro.analysis.figures import funnel


def test_bench_funnel(benchmark, campaign_results):
    result = benchmark(
        funnel.compute,
        campaign_results.shard.funnel,
        len(campaign_results.population.quic_services()),
    )
    print()
    print(result.render_text())
    assert 0.9 < result.resolved_share <= 1.0
    assert 0.15 < result.quic_share < 0.30
