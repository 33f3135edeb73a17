"""Scenario engine: spec contract, baseline byte-identity, what-if campaigns.

The pins here complement ``tests/test_golden_report.py`` (which pins the
baseline artefact bytes): the identity scenario must render byte-identical
reports through every pipeline, each built-in what-if must run end-to-end
through the streaming path with its knob visibly applied, the reducer must
reject mixed-scenario merges, and ``compare_grid`` must emit the same
delta table whatever the worker count or shard size.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import build_report
from repro.quic.handshake import HandshakeClass
from repro.scanners import MeasurementCampaign
from repro.scanners.sharding import ShardTask, plan_shards, scan_shard
from repro.scanners.streaming import (
    CampaignReducer,
    ReductionSpec,
    provider_of_domain,
    summarize_shard,
)
from repro.scenarios import (
    BASELINE,
    BASELINE_FINGERPRINT,
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    compare_grid,
    load_scenario,
)
from repro.tls.cert_compression import CertificateCompressionAlgorithm
from repro.webpki.population import PopulationConfig, generate_population
from repro.x509.keys import KeyAlgorithm

SIZE = 400
SEED = 2022

WHAT_IFS = [name for name in BUILTIN_SCENARIOS if name != BASELINE.name]


def run_streamed(scenario: ScenarioSpec, size: int = SIZE, **kwargs):
    campaign = MeasurementCampaign(
        population_config=scenario.population_config(size=size, seed=SEED),
        stream=True,
        **kwargs,
    )
    return campaign.run()


@pytest.fixture(scope="module")
def baseline_results():
    return run_streamed(BASELINE)


class TestScenarioSpec:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_json_round_trip(self, name):
        spec = BUILTIN_SCENARIOS[name]
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        spec = BUILTIN_SCENARIOS["universal-compression"]
        path.write_text(spec.to_json(), encoding="utf-8")
        assert ScenarioSpec.from_file(str(path)) == spec
        assert load_scenario(str(path)) == spec

    def test_fingerprints_are_distinct(self):
        fingerprints = {spec.fingerprint() for spec in BUILTIN_SCENARIOS.values()}
        assert len(fingerprints) == len(BUILTIN_SCENARIOS)

    def test_baseline_is_identity_and_what_ifs_are_not(self):
        assert BASELINE.is_identity
        assert BASELINE.fingerprint() == BASELINE_FINGERPRINT
        for name in WHAT_IFS:
            assert not BUILTIN_SCENARIOS[name].is_identity, name

    def test_unknown_scenario_name_is_a_readable_error(self):
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario("definitely-not-a-scenario")
        message = str(excinfo.value)
        assert "definitely-not-a-scenario" in message
        assert "baseline-2022" in message  # lists the built-ins

    def test_malformed_specs_are_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(json.dumps({"name": "x", "bogus_knob": 1}))
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(json.dumps({"name": "x", "leaf_key_algorithm": "DSA-512"}))
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(
                json.dumps({"name": "x", "client_compression": ["gzip"]})
            )
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(
                json.dumps({"name": "x", "client_compression": "brotli"})  # not a list
            )
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", trim_chain_depth=0)
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", trim_chain_depth=2.0)  # floats break slicing
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(json.dumps({"name": "x", "trim_chain_depth": "2"}))
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", analysis_initial_size=900)
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json(
                json.dumps({"name": "x", "analysis_initial_size": "1400"})
            )
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", population_overrides=(("redirect_fraction", "lots"),))
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", profile_overrides=(("mvfst-like", "no-such-profile"),))
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="x", population_overrides=(("seed", 7),))

    def test_unknown_population_knob_fails_on_derivation(self):
        spec = ScenarioSpec(name="x", population_overrides=(("no_such_fraction", 0.5),))
        with pytest.raises(ScenarioError):
            spec.population_config(size=100)

    def test_invalid_derived_population_config_is_a_scenario_error(self):
        """PopulationConfig sanity failures surface as readable ScenarioErrors."""
        spec = ScenarioSpec(name="x", population_overrides=(("servfail_fraction", 0.95),))
        with pytest.raises(ScenarioError, match="invalid population config"):
            spec.population_config(size=100)

    def test_duplicate_override_keys_are_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioSpec(
                name="x",
                population_overrides=(
                    ("servfail_fraction", 0.1), ("servfail_fraction", 0.2),
                ),
            )

    def test_override_order_is_canonical(self):
        """A spec equals its JSON round-trip however the caller ordered pairs."""
        forward = ScenarioSpec(
            name="x",
            population_overrides=(
                ("servfail_fraction", 0.0), ("no_compression_fraction", 0.0),
            ),
        )
        backward = ScenarioSpec(
            name="x",
            population_overrides=(
                ("no_compression_fraction", 0.0), ("servfail_fraction", 0.0),
            ),
        )
        assert forward == backward
        assert ScenarioSpec.from_json(forward.to_json()) == forward

    def test_population_overrides_apply(self):
        spec = ScenarioSpec(
            name="no-failures", population_overrides=(("servfail_fraction", 0.0),)
        )
        config = spec.population_config(size=123, seed=7)
        assert config.size == 123 and config.seed == 7
        assert config.servfail_fraction == 0.0
        assert config.scenario == spec


class TestBaselineByteIdentity:
    def test_streamed_baseline_equals_plain_pipeline(self, baseline_results):
        plain = MeasurementCampaign(
            population_config=PopulationConfig(size=SIZE, seed=SEED), stream=True
        ).run()
        assert (
            build_report(baseline_results, include_sweep=False).text
            == build_report(plain, include_sweep=False).text
        )

    def test_eager_baseline_equals_plain_pipeline(self):
        scenario_population = generate_population(
            BASELINE.population_config(size=SIZE, seed=SEED)
        )
        plain_population = generate_population(PopulationConfig(size=SIZE, seed=SEED))
        with_scenario = MeasurementCampaign(population=scenario_population).run()
        plain = MeasurementCampaign(population=plain_population).run()
        assert (
            build_report(with_scenario, include_sweep=False).text
            == build_report(plain, include_sweep=False).text
        )


class TestWhatIfScenarios:
    @pytest.mark.parametrize("name", WHAT_IFS)
    def test_runs_end_to_end_and_stamps_the_report(self, name):
        scenario = BUILTIN_SCENARIOS[name]
        results = run_streamed(scenario, size=300)
        report = build_report(results, include_sweep=False)
        assert f"scenario: {name} [{scenario.fingerprint()[:12]}]" in report.text
        assert results.scan.deployment_count == 300

    def test_universal_compression_covers_every_server(self):
        results = run_streamed(BUILTIN_SCENARIOS["universal-compression"])
        brotli = CertificateCompressionAlgorithm.BROTLI
        assert results.scan.wild_count > 0
        assert results.scan.wild_support_counts[brotli] == results.scan.wild_count
        # The scanning client offers brotli, so compressed flights collapse
        # the Multi-RTT class (nothing this small stays above the budget).
        assert results.scan.class_counts.get(HandshakeClass.MULTI_RTT, 0) == 0

    def test_ecdsa_only_rewrites_every_leaf(self):
        population = generate_population(
            BUILTIN_SCENARIOS["ecdsa-only"].population_config(size=SIZE, seed=SEED)
        )
        algorithms = {
            deployment.delivered_chain.leaf.public_key.algorithm
            for deployment in population.deployments
            if deployment.delivered_chain is not None
        }
        assert algorithms == {KeyAlgorithm.ECDSA_P256}

    def test_trim_deeper_than_base_chain_caps_bloat_instead_of_erasing_it(self):
        """A trim depth above the base chain keeps (capped) bloat duplicates."""
        from repro.webpki.skeleton import ChainSpec

        bloated = ChainSpec(
            domain="bloated.example",
            ca_profile="Let's Encrypt R3 + cross-signed X1",
            key_algorithm=None,
            san_count=2,
            name_stem="bloated.example",
            validity_days=90,
            bloat_extras=(0,) * 20,
        )
        deep_trim = ScenarioSpec(name="deep-trim", trim_chain_depth=10)
        transformed = deep_trim._transform_chain_spec(bloated)
        assert transformed.bloat_extras == bloated.bloat_extras
        assert transformed.materialize().depth == 10

    def test_trimmed_chains_cap_delivered_depth(self):
        population = generate_population(
            BUILTIN_SCENARIOS["trimmed-chains"].population_config(size=SIZE, seed=SEED)
        )
        depths = {
            deployment.delivered_chain.depth
            for deployment in population.deployments
            if deployment.delivered_chain is not None
        }
        assert depths and max(depths) <= 2

    def test_large_initials_thread_into_the_scan(self, baseline_results):
        results = run_streamed(BUILTIN_SCENARIOS["large-initials"])
        assert results.analysis_initial_size == 1400
        assert baseline_results.analysis_initial_size == 1362

    def test_mvfst_patched_substitutes_the_profile(self):
        scenario = BUILTIN_SCENARIOS["mvfst-patched"]
        population = generate_population(scenario.population_config(size=4000, seed=SEED))
        behaviors = {
            deployment.server_behavior.name
            for deployment in population.deployments
            if deployment.server_behavior is not None
        }
        assert "mvfst-like" not in behaviors

    def test_scenario_population_shares_the_baseline_rng_stream(self):
        """Transforms rewrite chains/behaviour but never which domains exist."""
        baseline = generate_population(PopulationConfig(size=SIZE, seed=SEED))
        what_if = generate_population(
            BUILTIN_SCENARIOS["trimmed-chains"].population_config(size=SIZE, seed=SEED)
        )
        for ours, theirs in zip(baseline.deployments, what_if.deployments):
            assert ours.domain == theirs.domain
            assert ours.category is theirs.category
            assert ours.address == theirs.address
            assert ours.provider == theirs.provider

    def test_campaign_scenario_kwarg_matches_derived_config(self):
        """``MeasurementCampaign(scenario=...)`` equals passing a derived config."""
        scenario = BUILTIN_SCENARIOS["large-initials"]
        via_kwarg = MeasurementCampaign(
            population_config=PopulationConfig(size=300, seed=SEED),
            stream=True,
            scenario=scenario,
        ).run()
        via_config = run_streamed(scenario, size=300)
        assert (
            build_report(via_kwarg, include_sweep=False).text
            == build_report(via_config, include_sweep=False).text
        )

    def test_baseline_kwarg_accepts_a_plain_population(self):
        """scenario=None and the identity baseline denote the same pipeline."""
        population = generate_population(PopulationConfig(size=200, seed=SEED))
        campaign = MeasurementCampaign(population=population, scenario=BASELINE)
        assert campaign.scenario is BASELINE

    def test_campaign_rejects_population_from_another_scenario(self):
        population = generate_population(
            BUILTIN_SCENARIOS["trimmed-chains"].population_config(size=200, seed=SEED)
        )
        with pytest.raises(ValueError, match="different scenario"):
            MeasurementCampaign(
                population=population, scenario=BUILTIN_SCENARIOS["ecdsa-only"]
            )

    def test_streamed_equals_eager_for_a_what_if(self):
        """The streaming-reduction byte-identity contract holds for every
        built-in scenario, the Figure 3 sweep included."""
        for name, scenario in BUILTIN_SCENARIOS.items():
            streamed = run_streamed(scenario, size=300, run_sweep=True)
            eager = MeasurementCampaign(
                population=generate_population(scenario.population_config(size=300, seed=SEED)),
                run_sweep=True,
            ).run()
            assert build_report(streamed).text == build_report(eager).text, name


class TestScenarioFingerprintGuard:
    def _summary(self, scenario: ScenarioSpec, shard_index: int = 0):
        config = scenario.population_config(size=128, seed=SEED)
        shard = plan_shards(config.size, 64)[shard_index]
        task = ShardTask(
            index=shard.index,
            population_config=config,
            start=shard.start,
            stop=shard.stop,
        )
        deployments = tuple(task.resolve_deployments())
        scan = scan_shard(task, deployments=deployments)
        return summarize_shard(task, deployments, scan, ReductionSpec())

    def test_summaries_carry_the_scenario_fingerprint(self):
        summary = self._summary(BUILTIN_SCENARIOS["trimmed-chains"])
        assert summary.scenario_fingerprint == BUILTIN_SCENARIOS["trimmed-chains"].fingerprint()
        assert self._summary(BASELINE).scenario_fingerprint == BASELINE_FINGERPRINT

    def test_mixed_scenario_merges_are_rejected(self):
        reducer = CampaignReducer()
        reducer.add(self._summary(BASELINE, shard_index=0))
        with pytest.raises(ValueError, match="mixed-scenario"):
            reducer.add(self._summary(BUILTIN_SCENARIOS["trimmed-chains"], shard_index=1))

    def test_same_scenario_merges_fine(self):
        reducer = CampaignReducer()
        reducer.add(self._summary(BUILTIN_SCENARIOS["trimmed-chains"], shard_index=0))
        reducer.add(self._summary(BUILTIN_SCENARIOS["trimmed-chains"], shard_index=1))
        scan = reducer.reduced_scan()
        assert scan.deployment_count == 128
        assert scan.scenario_fingerprint == BUILTIN_SCENARIOS["trimmed-chains"].fingerprint()

    def test_finalize_streaming_rejects_a_foreign_reduction(self):
        """The checkpoint/resume seam verifies the reduction's scenario."""
        scenario = BUILTIN_SCENARIOS["trimmed-chains"]
        reducer = CampaignReducer()
        reducer.add(self._summary(scenario, shard_index=0))
        reducer.add(self._summary(scenario, shard_index=1))
        scan = reducer.reduced_scan()
        baseline_campaign = MeasurementCampaign(
            population_config=PopulationConfig(size=128, seed=SEED), stream=True
        )
        with pytest.raises(ValueError, match="different scenario"):
            baseline_campaign.finalize_streaming(scan)
        matching_campaign = MeasurementCampaign(
            population_config=scenario.population_config(size=128, seed=SEED),
            stream=True,
        )
        results = matching_campaign.finalize_streaming(scan)
        assert results.scenario == scenario


class TestProviderLookup:
    def test_meta_service_domains_fall_back_to_meta(self):
        assert provider_of_domain("facebook.com", lambda domain: None) == "meta"
        assert provider_of_domain("unknown.example", lambda domain: None) is None


class TestCompareScenarios:
    NAMES = "baseline-2022,universal-compression"

    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_grid(self.NAMES, size=300, seed=SEED)

    def test_delta_table_is_deterministic_across_shardings(self, comparison):
        resharded = compare_grid(self.NAMES, size=300, seed=SEED, shard_size=64)
        assert comparison.render_text() == resharded.render_text()

    def test_table_structure(self, comparison):
        text = comparison.render_text()
        for name in self.NAMES.split(","):
            assert name in text
        for label in ("1-RTT share", "mean amp factor", "compression rescue"):
            assert label in text

    def test_universal_compression_moves_the_funnel(self, comparison):
        baseline, universal = comparison.outcomes
        assert baseline.scenario.name == "baseline-2022"
        assert universal.one_rtt_share >= baseline.one_rtt_share
        assert universal.exceeding_share <= baseline.exceeding_share

    def test_requires_at_least_one_scenario(self):
        with pytest.raises(ScenarioError):
            compare_grid(",")
