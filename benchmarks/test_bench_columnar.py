"""Benchmark: object vs columnar shard scan over the same deployments.

Times exactly what the streaming pipeline pays per shard — the object path
as ``scan_shard`` + ``summarize_shard`` (stages 1–4 over real DNS/TLS/QUIC
fabric objects, then the reduction summary), the columnar path as the single
fused ``summarize_shard_columnar`` kernel over the lowered deployments
(``lower_deployments``, as a cold columnar shard visit pays it).  Both produce identical
``ShardSummary`` values (tests/test_columnar_scan.py and
tests/test_properties.py pin it); this module only compares wall time, so
perf PRs can quote a like-for-like per-shard number next to the end-to-end
layer table of ``python3 bench/run.py --trace 1`` (``columnar.kernel``).

Knobs (environment):
  REPRO_BENCH_COLUMNAR_SIZE  population size scanned per variant (default 2500)
"""

from __future__ import annotations

import os

import pytest

from repro.scanners.columnar import summarize_shard_columnar
from repro.scanners.shard_columns import lower_deployments
from repro.scanners.sharding import DEFAULT_SHARD_SIZE, ShardTask, plan_shards, scan_shard
from repro.scanners.streaming import ReductionSpec, summarize_shard
from repro.webpki.population import PopulationConfig

COLUMNAR_BENCH_SIZE = int(os.environ.get("REPRO_BENCH_COLUMNAR_SIZE", "2500"))

_SPEC = ReductionSpec()


@pytest.fixture(scope="module")
def shard_work():
    """The campaign's shards with their deployments pre-resolved, so both
    variants time scanning only (generation is excluded)."""
    config = PopulationConfig(size=COLUMNAR_BENCH_SIZE, seed=2022)
    work = []
    for shard in plan_shards(config.size, DEFAULT_SHARD_SIZE):
        task = ShardTask(
            index=shard.index,
            population_config=config,
            start=shard.start,
            stop=shard.stop,
        )
        work.append((task, tuple(task.resolve_deployments())))
    return work


def _scan_object(work) -> int:
    quic = 0
    for task, deployments in work:
        scan = scan_shard(task, deployments=deployments)
        summary = summarize_shard(task, deployments, scan, _SPEC)
        quic += summary.quic_count
    return quic


def _scan_columnar(work) -> int:
    quic = 0
    for task, deployments in work:
        columns = lower_deployments(deployments)
        summary = summarize_shard_columnar(task, columns, _SPEC)
        quic += summary.quic_count
    return quic


@pytest.mark.benchmark(group="columnar")
def test_bench_shard_scan_object(benchmark, shard_work):
    benchmark.pedantic(_scan_object, args=(shard_work,), rounds=1, iterations=1)


@pytest.mark.benchmark(group="columnar")
def test_bench_shard_scan_columnar(benchmark, shard_work):
    benchmark.pedantic(_scan_columnar, args=(shard_work,), rounds=1, iterations=1)
