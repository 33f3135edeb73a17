"""Two-phase generation contract: RNG-stream equality and differential suites.

Three invariants keep skeleton-based generation byte-identical to eager
generation (and therefore keep the golden report digests stable):

1. **Stream equality.**  The skeleton pass consumes exactly the draws full
   generation consumes, in the same order — materialisation draws nothing.
2. **Differential materialisation.**  A materialised skeleton equals the
   eagerly generated deployment field for field, chain object identity
   (shared QUIC/HTTPS chain) included.
3. **Fast-path issuance.**  The per-``(issuer, key algorithm)`` template path
   produces certificates byte-identical to the reference ``issue_leaf``.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.webpki.population as population_module
import repro.webpki.skeleton as skeleton_module
import repro.x509.ca as ca_module
from repro.scanners.sharding import ShardTask, plan_shards
from repro.scanners.streaming import _count_quic_targets
from repro.webpki.deployment import ServiceCategory
from repro.webpki.population import (
    GENERATION_SHARD_SIZE,
    PopulationConfig,
    deployments_for_range,
    generate_shard,
    iter_population_shards,
)
from repro.webpki.skeleton import ChainSpec, DeploymentSkeleton, bloat_pool, draw_bloat_extras
from repro.webpki.tranco import generate_tranco_list
from repro.x509.ca import default_hierarchy, issue_leaf
from repro.x509.issuance import issue_leaf_fast, leaf_template
from repro.x509.keys import KeyAlgorithm


# ---------------------------------------------------------------------------
# Recording RNG: captures every draw any generation pass makes
# ---------------------------------------------------------------------------

class RecordingRandom(random.Random):
    """A ``random.Random`` that logs (method, repr(args), result) per draw."""

    log: list

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def _record(self, method, args, result):
        self.log.append((method, repr(args), repr(result)))
        return result

    def random(self):
        return self._record("random", (), super().random())

    def randint(self, a, b):
        return self._record("randint", (a, b), super().randint(a, b))

    def triangular(self, low=0.0, high=1.0, mode=None):
        return self._record("triangular", (low, high, mode), super().triangular(low, high, mode))

    def choice(self, seq):
        return self._record("choice", (len(seq),), super().choice(seq))

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        return self._record(
            "choices",
            (len(population), k),
            super().choices(population, weights, cum_weights=cum_weights, k=k),
        )


def _record_generation(monkeypatch, config: PopulationConfig, skeleton: bool):
    """Run one shard generation with a recording RNG; return (draw log, state)."""
    instances = []

    def recording_factory(*args):
        rng = RecordingRandom(*args)
        instances.append(rng)
        return rng

    # Warm the (memoized) ranked list and Meta PoP chains first so the only
    # RNG constructed under the patch is the shard's own derived generator.
    # The PoP memo is process-wide: built from a RecordingRandom (whose
    # ``random``-based ``_randbelow`` draws differently from ``getrandbits``)
    # it would poison every later test that reads the Meta figures.
    generate_tranco_list(config.size, seed=config.seed)
    population_module._meta_pop_chain_rows()
    monkeypatch.setattr(population_module.random, "Random", recording_factory)
    try:
        generate_shard(config, 0, skeleton=skeleton)
    finally:
        monkeypatch.undo()
    assert len(instances) == 1, "one derived RNG per generation shard"
    return instances[0].log, instances[0].getstate()


config_strategy = st.builds(
    PopulationConfig,
    size=st.integers(min_value=20, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
    different_quic_cert_fraction=st.sampled_from([0.0, 0.033, 0.5]),
    redirect_fraction=st.sampled_from([0.0, 0.15, 0.9]),
)


class TestRngStreamContract:
    @settings(max_examples=15, deadline=None)
    @given(config=config_strategy)
    def test_skeleton_pass_consumes_exactly_the_full_generation_stream(
        self, config
    ):
        """Same draws, same order, same final RNG state — phase 2 draws nothing."""
        monkeypatch = pytest.MonkeyPatch()
        skeleton_log, skeleton_state = _record_generation(monkeypatch, config, skeleton=True)
        full_log, full_state = _record_generation(monkeypatch, config, skeleton=False)
        assert skeleton_log == full_log
        assert skeleton_state == full_state
        assert skeleton_log, "generation must consume randomness"

    def test_draw_bloat_extras_consumes_the_legacy_bloat_stream(self):
        """One randint plus one equal-width choice per copy (the old draws)."""
        pool = bloat_pool()
        for seed in range(50):
            recorded = random.Random(f"bloat:{seed}")
            legacy = random.Random(f"bloat:{seed}")
            extras = draw_bloat_extras(recorded)
            copies = legacy.randint(12, 26)
            legacy_picks = [legacy.choice(pool) for _ in range(copies)]
            assert recorded.getstate() == legacy.getstate()
            assert len(extras) == copies
            assert [pool[index] for index in extras] == legacy_picks


class TestDifferentialMaterialisation:
    @settings(max_examples=10, deadline=None)
    @given(
        size=st.integers(min_value=20, max_value=250),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_materialized_skeletons_equal_eager_deployments(self, size, seed):
        config = PopulationConfig(size=size, seed=seed)
        eager = generate_shard(config, 0)
        skeleton_shard = generate_shard(config, 0, skeleton=True)
        materialized = skeleton_shard.materialize()
        assert materialized == eager
        for lazy, direct in zip(materialized.deployments, eager.deployments):
            assert lazy == direct  # dataclass equality covers every field
            if direct.https_chain is not None:
                assert lazy.https_chain.fingerprint == direct.https_chain.fingerprint
            # The common-case identity (QUIC delivers the HTTPS chain object)
            # survives two-phase generation.
            assert (lazy.quic_chain is lazy.https_chain) == (
                direct.quic_chain is direct.https_chain
            )

    def test_range_slicing_materializes_only_the_requested_slice(self):
        config = PopulationConfig(size=3 * GENERATION_SHARD_SIZE, seed=5)
        tranco = generate_tranco_list(config.size, seed=config.seed)
        start, stop = GENERATION_SHARD_SIZE // 2, 2 * GENERATION_SHARD_SIZE - 7
        full = [
            d
            for shard in iter_population_shards(config, tranco=tranco)
            for d in shard.deployments
        ]
        assert deployments_for_range(config, start, stop, tranco=tranco) == full[start:stop]
        skeletons = deployments_for_range(config, start, stop, tranco=tranco, skeleton=True)
        assert all(isinstance(s, DeploymentSkeleton) for s in skeletons)
        assert [s.materialize() for s in skeletons] == full[start:stop]

    def test_chain_spec_is_a_pure_value(self):
        spec = ChainSpec(
            domain="example.org",
            ca_profile="Let's Encrypt R3 + cross-signed X1",
            key_algorithm=KeyAlgorithm.RSA_2048,
            san_count=2,
            name_stem="example.org",
            validity_days=397,
            bloat_extras=(0, 3, 3, 41),
        )
        assert spec.san_names() == ["example.org", "www.example.org"]
        first = spec.materialize()
        second = spec.materialize()
        assert first == second
        assert first.fingerprint == second.fingerprint
        pool = bloat_pool()
        assert first.certificates[-4:] == (pool[0], pool[3], pool[3], pool[41])

    def test_skeleton_counts_match_materialized_categories(self):
        config = PopulationConfig(size=400, seed=11)
        shard = generate_shard(config, 0, skeleton=True)
        counts = shard.category_counts()
        materialized = shard.materialize()
        for category in ServiceCategory:
            assert counts[category] == sum(
                1 for d in materialized.deployments if d.category is category
            )


class TestShardTaskSkeletons:
    CONFIG = PopulationConfig(size=500, seed=23)

    def test_recipe_tasks_resolve_skeletons_without_chains(self):
        task = ShardTask(index=0, population_config=self.CONFIG, start=100, stop=400)
        skeletons = task.resolve_skeletons()
        deployments = task.resolve_deployments()
        assert all(isinstance(s, DeploymentSkeleton) for s in skeletons)
        assert [s.domain for s in skeletons] == [d.domain for d in deployments]
        assert [s.category for s in skeletons] == [d.category for d in deployments]
        assert [s.rank for s in skeletons] == [d.rank for d in deployments]
        assert [s.provider for s in skeletons] == [d.provider for d in deployments]


class TestIssuanceFastPath:
    def test_fast_path_is_byte_identical_to_reference_issue_leaf(self):
        hierarchy = default_hierarchy()
        sans = ("byte.test", "www.byte.test", "api.byte.test")
        for label, profile in list(hierarchy.profiles.items())[:12]:
            for algorithm in (profile.leaf_key_algorithm, KeyAlgorithm.ECDSA_P384):
                reference = issue_leaf(
                    issuer=profile.issuer,
                    domain="byte.test",
                    san_names=sans,
                    validity_days=365,
                    key_algorithm=algorithm,
                )
                fast = issue_leaf_fast(
                    leaf_template(profile.issuer, algorithm), "byte.test", sans, 365
                )
                assert fast.der == reference.der, label
                assert fast.tbs_der == reference.tbs_der, label
                assert fast == reference, label
                assert fast.san_names == reference.san_names
                assert [e.encode() for e in fast.extensions] == [
                    e.encode() for e in reference.extensions
                ]

    def test_profile_issue_matches_reference_for_default_sans(self):
        hierarchy = default_hierarchy()
        profile = hierarchy.profiles["Cloudflare ECC CA-3"]
        chain = profile.issue("defaults.test")
        reference = issue_leaf(
            issuer=profile.issuer,
            domain="defaults.test",
            key_algorithm=profile.leaf_key_algorithm,
        )
        assert chain.leaf.der == reference.der

    def test_template_is_cached_per_issuer_and_algorithm(self):
        hierarchy = default_hierarchy()
        issuer = hierarchy.profiles["Google 1C3"].issuer
        assert leaf_template(issuer, KeyAlgorithm.RSA_2048) is leaf_template(
            issuer, KeyAlgorithm.RSA_2048
        )
        assert leaf_template(issuer, KeyAlgorithm.RSA_2048) is not leaf_template(
            issuer, KeyAlgorithm.ECDSA_P256
        )


class TestSkeletonPassCost:
    """The skeleton pass issues no certificate, so it stays far cheaper than
    full generation: it is what makes the ``--stream --sweep`` discovery pass
    near-free."""

    #: Four generation shards, so per-shard RNG derivation and slicing run.
    CONFIG = PopulationConfig(size=4 * GENERATION_SHARD_SIZE, seed=2022)

    def test_skeleton_pass_issues_no_leaf(self, monkeypatch):
        issued = []

        def counting_issue(*args, **kwargs):
            issued.append(args[1])
            return issue_leaf_fast(*args, **kwargs)

        for module in (skeleton_module, ca_module):
            monkeypatch.setattr(module, "issue_leaf_fast", counting_issue)
        skeleton_shard = generate_shard(self.CONFIG, 3, skeleton=True)
        assert issued == []
        generate_shard(self.CONFIG, 3)
        specs = {
            spec
            for skeleton in skeleton_shard.skeletons
            for spec in (skeleton.https_spec, skeleton.quic_spec)
            if spec is not None
        }
        # Full generation issues one leaf per distinct chain spec.
        assert specs and len(issued) == len(specs)

    def test_skeleton_pass_is_at_least_twice_as_fast(self):
        """A coarse timing gate (the ratio is hardware-dependent; docs/PERFORMANCE.md
        tracks it): it fails when the skeleton pass materialises chains again."""
        generate_shard(self.CONFIG, 2, skeleton=True)  # warm the caches
        generate_shard(self.CONFIG, 2)
        # Interleaved pairs, compared by each side's fastest run: a load spike
        # from a concurrent process then has to hit every pair to flip the check.
        skeleton_seconds, full_seconds = [], []
        for _ in range(8):
            t0 = time.perf_counter()
            generate_shard(self.CONFIG, 3, skeleton=True)
            skeleton_seconds.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            generate_shard(self.CONFIG, 3)
            full_seconds.append(time.perf_counter() - t0)
        assert min(full_seconds) > 2 * min(skeleton_seconds)

    def test_materialised_shard_equals_full_generation(self):
        skeleton_shard = generate_shard(self.CONFIG, 1, skeleton=True)
        full_shard = generate_shard(self.CONFIG, 1)
        assert skeleton_shard.materialize().deployments == full_shard.deployments

    def test_discovery_pass_counts_quic_targets_from_skeletons(self):
        tasks = [
            ShardTask(
                index=spec.index, population_config=self.CONFIG, start=spec.start, stop=spec.stop
            )
            for spec in plan_shards(self.CONFIG.size, 2048)
        ]
        quic_targets = sum(_count_quic_targets(task)[1] for task in tasks)
        # Appendix D: about 21 % of the names speak QUIC.
        assert quic_targets == pytest.approx(0.21 * self.CONFIG.size, rel=0.25)
