"""Determinism tests for shard planning, sharded scans and streaming generation.

The contract under test: a seeded campaign produces byte-identical results no
matter how the work is split — serial vs. streamed shards, one worker vs. many
processes, eager vs. streaming population generation.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import build_report
from repro.scanners.orchestrator import MeasurementCampaign
from repro.scanners.sharding import DEFAULT_SHARD_SIZE, plan_shards
from repro.webpki.deployment import ServiceCategory
from repro.webpki.population import (
    GENERATION_SHARD_SIZE,
    InternetPopulation,
    PopulationConfig,
    generate_population,
    generate_shard,
    iter_population_shards,
)
from repro.x509.field_sizes import measure_field_sizes

#: Small population with several scan shards (shard_size=256 below) so the
#: reduction merge is actually exercised; sized to keep the 4-process test quick.
CONFIG = PopulationConfig(size=1200, seed=77)
SHARD_SIZE = 256


@pytest.fixture(scope="module")
def population():
    return generate_population(CONFIG)


CAMPAIGN_KWARGS = dict(run_sweep=True, sweep_sample_size=80, spoofed_targets_per_provider=20)


def _campaign(population):
    return MeasurementCampaign(population=population, **CAMPAIGN_KWARGS).run()


def _streamed(**kwargs):
    return MeasurementCampaign(
        population_config=CONFIG, stream=True, **CAMPAIGN_KWARGS, **kwargs
    ).run()


class TestPlanShards:
    def test_covers_every_deployment_exactly_once(self):
        specs = plan_shards(1000, shard_size=128)
        assert specs[0].start == 0
        assert specs[-1].stop == 1000
        for left, right in zip(specs, specs[1:]):
            assert left.stop == right.start
        assert sum(len(spec) for spec in specs) == 1000

    def test_last_shard_may_be_short(self):
        specs = plan_shards(1000, shard_size=300)
        assert [len(spec) for spec in specs] == [300, 300, 300, 100]

    def test_boundaries_do_not_depend_on_worker_count(self):
        # There is no worker parameter at all: the plan is a pure function of
        # (total, shard_size), which is what makes N-process runs mergeable.
        assert plan_shards(5000) == plan_shards(5000, DEFAULT_SHARD_SIZE)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(100, shard_size=0)
        with pytest.raises(ValueError):
            plan_shards(-1)


class TestStreamingGeneration:
    def test_streaming_equals_eager(self, population):
        streamed = [
            deployment
            for shard in iter_population_shards(CONFIG)
            for deployment in shard.deployments
        ]
        assert len(streamed) == len(population.deployments)
        for streamed_d, eager_d in zip(streamed, population.deployments):
            assert streamed_d.domain == eager_d.domain
            assert streamed_d.rank == eager_d.rank
            assert streamed_d.category == eager_d.category
            assert streamed_d.address == eager_d.address
            assert streamed_d.provider == eager_d.provider
            if eager_d.https_chain is not None:
                assert streamed_d.https_chain.fingerprint == eager_d.https_chain.fingerprint
            if eager_d.quic_chain is not None:
                assert streamed_d.quic_chain.fingerprint == eager_d.quic_chain.fingerprint

    def test_shards_are_rank_contiguous(self):
        shards = list(iter_population_shards(CONFIG))
        assert shards[0].start_rank == 1
        for shard in shards:
            ranks = [d.rank for d in shard.deployments]
            assert ranks == list(range(shard.start_rank, shard.start_rank + len(ranks)))
        assert shards[-1].end_rank == CONFIG.size

    def test_single_shard_generation_is_order_independent(self):
        # Shard 1 generated alone equals shard 1 from the stream: it depends
        # only on (seed, shard_index), never on shard 0 having been generated.
        alone = generate_shard(CONFIG, 1)
        streamed = list(iter_population_shards(CONFIG))[1]
        assert alone.start_rank == streamed.start_rank == GENERATION_SHARD_SIZE + 1
        assert [d.domain for d in alone.deployments] == [
            d.domain for d in streamed.deployments
        ]
        assert [d.address for d in alone.deployments] == [
            d.address for d in streamed.deployments
        ]

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            generate_shard(CONFIG, 99)


class TestShardedScanDeterminism:
    def test_workers_1_vs_4_byte_identical_report(self):
        """The acceptance criterion: same seed => same report bytes, any N."""
        results_1 = _streamed(workers=1, shard_size=SHARD_SIZE)
        results_4 = _streamed(workers=4, shard_size=SHARD_SIZE)
        assert build_report(results_1).text == build_report(results_4).text
        assert results_1.flight_cache == results_4.flight_cache
        assert results_1.scan.funnel.as_dict() == results_4.scan.funnel.as_dict()
        assert results_1.sweep.observations == results_4.sweep.observations

    def test_sharded_equals_serial_report(self, population):
        serial = _campaign(population)
        sharded = _streamed(workers=1, shard_size=SHARD_SIZE)
        assert build_report(serial).text == build_report(sharded).text

    def test_shard_size_does_not_change_results(self):
        small = _streamed(workers=1, shard_size=200)
        large = _streamed(workers=1, shard_size=800)
        assert build_report(small).text == build_report(large).text

    def test_sweep_on_hand_assembled_population(self, population):
        """Regression: the serial sweep samples hand-assembled populations.

        A hand-assembled population (here: the QUIC subset, so ranks are
        sparse and far exceed the list length) samples by list position, not
        rank, and still sweeps reachable targets.
        """
        quic_only = [
            d for d in population.deployments if d.category is ServiceCategory.QUIC
        ]
        subset = InternetPopulation(
            config=population.config, tranco=population.tranco, deployments=quic_only
        )
        serial = MeasurementCampaign(
            population=subset, run_sweep=True, sweep_sample_size=60,
            spoofed_targets_per_provider=10,
        ).run()
        assert serial.reduced.sweep.observations
        reachable = [o for o in serial.reduced.sweep.observations if o.reachable]
        assert len(reachable) > len(serial.reduced.sweep.observations) * 0.9

    def test_sweep_reuses_per_shard_caches(self):
        results = _streamed(workers=1, shard_size=SHARD_SIZE)
        # The sweep replays each sampled domain at every Initial size; all but
        # the first replay hit the shard's cache.
        assert results.flight_cache.hits > results.flight_cache.misses


class TestFieldSizeMemo:
    def test_repeated_measurement_returns_cached_object(self, population):
        certificate = population.quic_services()[0].https_chain.leaf
        first = measure_field_sizes(certificate)
        second = measure_field_sizes(certificate)
        assert second is first  # memoized on the frozen instance

    def test_memoized_sizes_still_account_for_every_byte(self, population):
        for deployment in population.quic_services()[:20]:
            for certificate in deployment.https_chain:
                sizes = measure_field_sizes(certificate)
                assert sizes.total == certificate.size
                accounted = (
                    sizes.subject + sizes.issuer + sizes.public_key_info
                    + sizes.extensions + sizes.signature + sizes.other
                )
                assert accounted == sizes.total
