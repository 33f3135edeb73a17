"""Benchmark: Figure 3 — handshake classes across the client Initial-size sweep."""

from repro.analysis.figures import figure03
from repro.quic.handshake import HandshakeClass


def test_bench_figure03(benchmark, campaign_results):
    result = benchmark(figure03.compute, campaign_results.reduced.sweep)
    print()
    print(result.render_text())
    size = result.initial_sizes()[len(result.initial_sizes()) // 2]
    assert result.share(size, HandshakeClass.AMPLIFICATION) > 0.4
    assert result.share(size, HandshakeClass.MULTI_RTT) > 0.2
