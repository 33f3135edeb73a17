"""Differential tests: streaming reduction vs. eager campaign results.

The streaming contract under test: a campaign reduced shard-by-shard in the
workers (``MeasurementCampaign(stream=True)``) produces byte-identical
report, figure and table output to the serial path — for any seed, worker
count and shard size — while the parent only ever holds reduced summaries.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.export import export_evaluation
from repro.analysis.report import build_report
from repro.scanners import MeasurementCampaign
from repro.scanners.streaming import (
    SPOOF_PROVIDERS,
    ReducedCampaignResults,
    take_per_provider,
)
from repro.webpki.population import PopulationConfig, generate_population

#: Sized to span several scan shards at the shard sizes below while keeping
#: the full matrix fast.
POPULATION_SIZE = 900

CAMPAIGN_KWARGS = dict(
    run_sweep=True,
    sweep_sample_size=60,
    spoofed_targets_per_provider=12,
)


def _eager(config, **kwargs):
    population = generate_population(config)
    return MeasurementCampaign(population=population, **CAMPAIGN_KWARGS, **kwargs).run()


def _streamed(config, **kwargs):
    return MeasurementCampaign(
        population_config=config, stream=True, **CAMPAIGN_KWARGS, **kwargs
    ).run()


class TestStreamingMatchesEager:
    @pytest.mark.parametrize("seed", [2022, 7])
    def test_report_bytes_identical_to_serial(self, seed):
        config = PopulationConfig(size=POPULATION_SIZE, seed=seed)
        eager = _eager(config)
        streamed = _streamed(config, shard_size=256)
        assert isinstance(streamed, ReducedCampaignResults)
        assert build_report(eager).text == build_report(streamed).text

    def test_flight_cache_counters_do_not_depend_on_process_history(self):
        """Streamed counters come from per-shard caches plus stage 5's own
        cache, so a process-wide cache warmed by a serial run cannot move
        them."""
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        cold = _streamed(config, shard_size=200)
        _eager(config)
        warm = _streamed(config, shard_size=200)
        assert warm.flight_cache == cold.flight_cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_count_does_not_change_report(self, workers):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _streamed(config, workers=1, shard_size=256)
        other = _streamed(config, workers=workers, shard_size=256)
        assert build_report(reference).text == build_report(other).text
        assert reference.flight_cache == other.flight_cache

    @pytest.mark.parametrize("shard_size", [128, 512])
    def test_shard_size_does_not_change_report(self, shard_size):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _eager(config)
        streamed = _streamed(config, shard_size=shard_size)
        assert build_report(reference).text == build_report(streamed).text

    def test_without_sweep(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=9)
        eager = MeasurementCampaign(
            population=generate_population(config), spoofed_targets_per_provider=12
        ).run()
        streamed = MeasurementCampaign(
            population_config=config, stream=True, spoofed_targets_per_provider=12
        ).run()
        assert streamed.scan.sweep is None
        assert build_report(eager).text == build_report(streamed).text


class TestStreamingExports:
    def test_csv_exports_byte_identical(self, tmp_path):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        eager = _eager(config)
        streamed = _streamed(config, shard_size=256)
        eager_dir = tmp_path / "eager"
        streamed_dir = tmp_path / "streamed"
        export_evaluation(eager, str(eager_dir))
        export_evaluation(streamed, str(streamed_dir))
        eager_files = sorted(os.listdir(eager_dir))
        assert eager_files == sorted(os.listdir(streamed_dir))
        for name in eager_files:
            assert (eager_dir / name).read_bytes() == (streamed_dir / name).read_bytes(), name


class TestReducedResultsShape:
    def test_counts_cover_population(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        streamed = _streamed(config, shard_size=256)
        scan = streamed.scan
        assert scan.deployment_count == config.size
        assert streamed.population_size == config.size
        assert scan.handshake_total == scan.quic_count
        assert scan.quic_certificate_count == scan.quic_count
        assert scan.wild_count == scan.quic_count
        assert scan.funnel.names_total == config.size
        assert len(streamed.meta_probe_before) == 256
        assert len(streamed.meta_probe_after) == 256

    @pytest.mark.parametrize(
        "knob", [dict(workers=2), dict(shard_size=256), dict(scan_backend="columnar")]
    )
    def test_dispatch_knobs_require_stream(self, knob):
        with pytest.raises(ValueError, match="pass stream=True") as error:
            MeasurementCampaign(population_config=PopulationConfig(size=100, seed=1), **knob)
        assert "\n" not in str(error.value)

    def test_streaming_rejects_materialised_population(self):
        population = generate_population(PopulationConfig(size=400, seed=5))
        with pytest.raises(ValueError):
            MeasurementCampaign(population=population, stream=True)

    def test_spoof_selection_matches_eager_walk(self):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        population = generate_population(config)
        eager = take_per_provider(population.quic_services(), 12, SPOOF_PROVIDERS)
        eager_domains = [d.domain for d in eager]
        streamed = _streamed(config, shard_size=128)
        streamed_domains = [d.domain for d in streamed.scan.spoof_deployments]
        assert streamed_domains == eager_domains
