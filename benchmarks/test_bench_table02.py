"""Benchmark: Table 2 — crypto algorithms and key lengths in use."""

from repro.analysis.figures import table02


def test_bench_table02(benchmark, reduced_scan):
    result = benchmark(
        table02.compute_from_counters,
        reduced_scan.key_alg_counters,
        reduced_scan.key_alg_totals,
    )
    print()
    print(result.render_text())
    assert result.ecdsa_share("QUIC", "Leaf") > result.ecdsa_share("HTTPS-only", "Leaf")
