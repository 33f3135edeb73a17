"""Benchmark: two-phase population generation and the sweep discovery pass.

Pins the cost relationship the two-phase refactor exists for:

* the skeleton pass (phase 1, no chain issuance) must stay far cheaper than
  full generation — it is what makes the ``--stream --sweep`` discovery pass
  near-free,
* full generation itself runs through the per-``(issuer, key algorithm)``
  issuance fast path and must stay in the tens-of-milliseconds range per
  1024-domain generation shard,
* the discovery pass (`_count_quic_targets`) counts from skeletons and must
  not regress to chain-issuing regeneration.

The population here is a fixed four-generation-shard config (not the shared
campaign fixture), so the measured shard costs are comparable across runs
regardless of the harness' campaign-size knobs.
"""

from __future__ import annotations

import pytest

import repro.webpki.skeleton as skeleton_module
import repro.x509.ca as ca_module
from repro.scanners.sharding import ShardTask, plan_shards
from repro.scanners.streaming import _count_quic_targets
from repro.webpki.population import (
    GENERATION_SHARD_SIZE,
    PopulationConfig,
    generate_shard,
    iter_population_shards,
)
from repro.webpki.tranco import generate_tranco_list
from repro.x509.issuance import issue_leaf_fast

#: Multi-shard config so per-shard RNG derivation and slicing are exercised.
BENCH_CONFIG = PopulationConfig(size=4 * GENERATION_SHARD_SIZE, seed=2022)


@pytest.fixture(scope="module", autouse=True)
def warm_tranco():
    """Pre-build the ranked list so benchmarks time generation, not Tranco."""
    generate_tranco_list(BENCH_CONFIG.size, seed=BENCH_CONFIG.seed)


def test_bench_skeleton_generation(benchmark):
    shard = benchmark(generate_shard, BENCH_CONFIG, 1, True)
    assert len(shard.skeletons) == GENERATION_SHARD_SIZE
    counts = shard.category_counts()
    assert sum(counts.values()) == GENERATION_SHARD_SIZE


def test_bench_full_generation(benchmark):
    shard = benchmark(generate_shard, BENCH_CONFIG, 1)
    assert len(shard.deployments) == GENERATION_SHARD_SIZE
    assert any(d.https_chain is not None for d in shard.deployments)


def test_bench_skeleton_materialisation(benchmark):
    skeleton_shard = generate_shard(BENCH_CONFIG, 1, skeleton=True)
    shard = benchmark(skeleton_shard.materialize)
    assert shard.deployments == generate_shard(BENCH_CONFIG, 1).deployments


def test_bench_streaming_population_generation(benchmark):
    """Streaming generation throughput (the 100k–1M ingest path)."""

    def consume() -> int:
        total = 0
        for shard in iter_population_shards(PopulationConfig(size=4096, seed=7)):
            total += len(shard.deployments)
        return total

    assert benchmark.pedantic(consume, rounds=1, iterations=1) == 4096


def test_bench_discovery_pass(benchmark):
    tasks = [
        ShardTask(
            index=spec.index,
            population_config=BENCH_CONFIG,
            start=spec.start,
            stop=spec.stop,
        )
        for spec in plan_shards(BENCH_CONFIG.size, 2048)
    ]

    def discover() -> int:
        return sum(_count_quic_targets(task)[1] for task in tasks)

    quic_targets = benchmark(discover)
    # Appendix D: ≈24 % of resolved names speak QUIC; counting from skeletons
    # must see exactly what full generation produces.
    assert quic_targets == pytest.approx(0.21 * BENCH_CONFIG.size, rel=0.25)


def test_skeleton_pass_is_much_cheaper_than_full_generation(monkeypatch):
    """The two-phase contract's reason to exist, pinned coarsely (≥2×).

    Issuance already runs through the per-issuer fast path, so full generation
    is only a few times slower than the skeleton pass; the precise ratio is
    hardware-dependent (docs/PERFORMANCE.md tracks it).  The timing floor
    guards against the skeleton pass accidentally materialising chains again;
    the issuance count pins the same property without a clock: the skeleton
    pass issues no leaf and full generation one per distinct chain spec.
    """
    import time

    generate_shard(BENCH_CONFIG, 2, skeleton=True)  # warm caches
    generate_shard(BENCH_CONFIG, 2)

    issued = []

    def counting_issue(*args, **kwargs):
        issued.append(args[1])
        return issue_leaf_fast(*args, **kwargs)

    for module in (skeleton_module, ca_module):
        monkeypatch.setattr(module, "issue_leaf_fast", counting_issue)
    skeleton_shard = generate_shard(BENCH_CONFIG, 3, skeleton=True)
    assert issued == []
    generate_shard(BENCH_CONFIG, 3)
    specs = {
        spec
        for skeleton in skeleton_shard.skeletons
        for spec in (skeleton.https_spec, skeleton.quic_spec)
        if spec is not None
    }
    assert specs and len(issued) == len(specs)
    monkeypatch.undo()

    # Interleaved pairs, compared by each side's fastest run: a load spike
    # from a concurrent process then has to hit every pair to flip the check.
    skeleton_seconds, full_seconds = [], []
    for _ in range(8):
        t0 = time.perf_counter()
        generate_shard(BENCH_CONFIG, 3, skeleton=True)
        skeleton_seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        generate_shard(BENCH_CONFIG, 3)
        full_seconds.append(time.perf_counter() - t0)
    assert min(full_seconds) > 2 * min(skeleton_seconds)
