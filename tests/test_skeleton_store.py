"""Skeleton-store warm starts: byte-identical, self-verifying, scenario-shared.

The store is an optimisation, never a source of truth: a warm campaign must
produce the same bytes as a cache-free one on every dispatch path (streamed,
eager, grid, any backend/worker/shard-size combination), one directory must
serve every scenario over its population, and any defective file — torn,
corrupt, stale-format, foreign — must be quarantined and its shard silently
regenerated to the same bytes.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.analysis.export import export_evaluation
from repro.analysis.report import build_report
from repro.scanners import MeasurementCampaign, run_grid_campaign
from repro.scanners import skeleton_store as skeleton_store_module
from repro.scanners import streaming as streaming_module
from repro.scanners.columnar import summarize_shard_columnar
from repro.scanners.faults import corrupt_file, truncate_file
from repro.scanners.skeleton_store import (
    GENERATION_SHARD_SIZE,
    SKELETON_FORMAT,
    SkeletonKey,
    SkeletonStore,
    SkeletonStoreError,
    cache_counters,
    decode_skeleton_file,
    deployments_for_range,
    encode_skeleton_file,
    generate_population_cached,
    population_fingerprint,
    reset_cache_counters,
    reset_stores,
    shard_count,
    skeletons_for_range,
    store_for,
    warm,
)
from repro.scanners.shard_columns import lower_deployments
from repro.scanners.sharding import ShardTask
from repro.scanners.streaming import ReductionSpec
from repro.scenarios import load_scenario
from repro.scenarios.grid import load_grid
from repro.webpki import population as population_module
from repro.webpki import tranco as tranco_module
from repro.webpki.population import PopulationConfig, generate_population
from repro.webpki.skeleton import ChainSpec, SkeletonColumns, materialize_skeletons
from repro.x509 import issuance
from repro.x509.ca import default_hierarchy
from repro.x509.field_sizes import field_size_row, san_byte_share
from repro.x509.issuance import issue_leaf_fast, leaf_from_record, leaf_record, leaf_template
from repro.x509.keys import KeyAlgorithm

POPULATION_SIZE = 360  # < GENERATION_SHARD_SIZE: exactly one generation shard
SHARD_SIZE = 120
SPOOFED = 12
CAMPAIGN_KWARGS = dict(stream=True, shard_size=SHARD_SIZE, spoofed_targets_per_provider=SPOOFED)

GRID_MEMBERS = ("baseline-2022", "trimmed-chains", "universal-compression")

#: Two generation shards, so scan shards straddle a stored-shard boundary.
WARM_PATH_SIZE = 2000


@pytest.fixture(autouse=True)
def _isolate_process_state():
    reset_stores()
    reset_cache_counters()
    yield
    reset_stores()
    reset_cache_counters()


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def warmed_dir(config, tmp_path_factory) -> str:
    """One fully warmed cache directory for ``config`` (treated read-only)."""
    directory = str(tmp_path_factory.mktemp("skel-warm"))
    hits, misses = warm(directory, config)
    assert (hits, misses) == (0, shard_count(POPULATION_SIZE))
    return directory


@pytest.fixture(scope="module")
def references(config):
    """Cache-free streamed report texts: the bytes every warm run must hit."""
    texts = {
        "plain": build_report(
            MeasurementCampaign(population_config=config, **CAMPAIGN_KWARGS).run()
        ).text
    }
    for name in GRID_MEMBERS:
        member = load_scenario(name).population_config(base=config)
        texts[name] = build_report(
            MeasurementCampaign(population_config=member, **CAMPAIGN_KWARGS).run()
        ).text
    return texts


@pytest.fixture(scope="module")
def shard_and_cache(config, warmed_dir):
    store = SkeletonStore(warmed_dir)
    shard, cache = store.load_or_generate(config, 0)
    return shard, cache


class TestWireFormat:
    def test_round_trip(self, config, shard_and_cache):
        shard, cache = shard_and_cache
        key = SkeletonKey.for_config(config, 0)
        decoded, decoded_cache = decode_skeleton_file(
            encode_skeleton_file(shard, dict(cache), key=key), key=key
        )
        assert decoded.index == shard.index
        assert decoded.start_rank == shard.start_rank
        assert decoded.skeletons == shard.skeletons
        assert set(decoded_cache) == set(cache)
        for spec, chain in cache.items():
            assert decoded_cache[spec].leaf.der == chain.leaf.der
        for spec in decoded_cache:
            # The decoder's hash memo equals the hash of a freshly built spec,
            # so a lookup with an equal, independently built spec hits.
            assert hash(spec) == hash(dataclasses.replace(spec))

    def test_encoding_is_deterministic(self, config, shard_and_cache):
        shard, cache = shard_and_cache
        key = SkeletonKey.for_config(config, 0)
        assert encode_skeleton_file(shard, dict(cache), key=key) == encode_skeleton_file(
            shard, dict(cache), key=key
        )

    def test_header_carries_version_and_digest(self, shard_and_cache):
        shard, cache = shard_and_cache
        header = encode_skeleton_file(shard, dict(cache)).split(b"\n", 1)[0].split(b" ")
        assert header[0] == SKELETON_FORMAT
        assert len(header) == 3 and len(header[2]) == 64

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data[: len(data) // 2],            # truncated
            lambda data: data.replace(b"/1", b"/0", 1),     # stale version
            lambda data: b"",                               # empty file
            lambda data: b"not a skeleton shard",           # garbage
        ],
    )
    def test_defective_bytes_raise(self, shard_and_cache, mangle):
        shard, cache = shard_and_cache
        data = encode_skeleton_file(shard, dict(cache))
        with pytest.raises(SkeletonStoreError):
            decode_skeleton_file(mangle(data))

    def test_flipped_payload_byte_raises(self, shard_and_cache):
        shard, cache = shard_and_cache
        data = bytearray(encode_skeleton_file(shard, dict(cache)))
        data[-3] ^= 0xFF
        with pytest.raises(SkeletonStoreError):
            decode_skeleton_file(bytes(data))

    def test_wrong_content_address_raises(self, config, shard_and_cache):
        shard, cache = shard_and_cache
        key = SkeletonKey.for_config(config, 0)
        other = SkeletonKey.for_config(
            dataclasses.replace(config, seed=7), 0
        )
        data = encode_skeleton_file(shard, dict(cache), key=other)
        with pytest.raises(SkeletonStoreError, match="foreign or renamed"):
            decode_skeleton_file(data, key=key)

    def test_populate_false_skips_the_annex(self, config, shard_and_cache):
        shard, cache = shard_and_cache
        key = SkeletonKey.for_config(config, 0)
        data = encode_skeleton_file(shard, dict(cache), key=key)
        decoded, decoded_cache = decode_skeleton_file(data, populate=False, key=key)
        assert decoded.skeletons == shard.skeletons
        assert decoded_cache is None


class TestContentAddressing:
    def test_filename_embeds_index_and_digest(self, config):
        key = SkeletonKey.for_config(config, 3)
        assert key.filename().startswith("skel-000003-")
        assert key.filename().endswith(".skel")

    def test_distinct_populations_get_distinct_filenames(self, config):
        names = {
            SkeletonKey.for_config(config, 0).filename(),
            SkeletonKey.for_config(dataclasses.replace(config, seed=7), 0).filename(),
            SkeletonKey.for_config(dataclasses.replace(config, size=480), 0).filename(),
            SkeletonKey.for_config(
                dataclasses.replace(config, redirect_fraction=0.5), 0
            ).filename(),
            SkeletonKey.for_config(config, 1).filename(),
        }
        assert len(names) == 5

    def test_scenarios_share_the_baseline_address(self, config):
        """Scenarios are post-RNG transforms: they must not fragment the cache."""
        base = SkeletonKey.for_config(config, 0)
        for name in GRID_MEMBERS:
            member = load_scenario(name).population_config(base=config)
            assert population_fingerprint(member) == population_fingerprint(config)
            assert SkeletonKey.for_config(member, 0).filename() == base.filename()

    def test_shard_count_and_partial_last_shard(self):
        assert shard_count(1) == 1
        assert shard_count(GENERATION_SHARD_SIZE) == 1
        assert shard_count(GENERATION_SHARD_SIZE + 76) == 2
        key = SkeletonKey.for_config(
            PopulationConfig(size=GENERATION_SHARD_SIZE + 76, seed=1), 1
        )
        assert key.expected_length() == 76


class TestByteIdentity:
    @pytest.mark.parametrize(
        "workers,shard_size,backend",
        [
            (1, SHARD_SIZE, "object"),
            (2, SHARD_SIZE, "columnar"),
            (2, 90, "columnar"),  # scan shards that straddle nothing evenly
        ],
    )
    def test_cold_then_warm_streamed_runs_match_cache_free(
        self, config, references, tmp_path, workers, shard_size, backend
    ):
        directory = str(tmp_path / "skel")
        kwargs = dict(
            population_config=config,
            stream=True,
            workers=workers,
            shard_size=shard_size,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend=backend,
            skeleton_cache_dir=directory,
        )
        cold = build_report(MeasurementCampaign(**kwargs).run()).text
        entries = SkeletonStore(directory).entries()
        assert len(entries) == shard_count(POPULATION_SIZE)  # cold run populated
        stamps = {
            name: os.stat(os.path.join(directory, name)).st_mtime_ns
            for name in entries
        }
        reset_stores()
        warm_text = build_report(MeasurementCampaign(**kwargs).run()).text
        assert cold == references["plain"]
        assert warm_text == references["plain"]
        # The warm run replayed every shard: nothing was rewritten.  (Cache
        # counters live per process, so with workers > 1 disk state is the
        # only observable.)
        for name, stamp in stamps.items():
            assert os.stat(os.path.join(directory, name)).st_mtime_ns == stamp

    def test_eager_campaign_through_the_store(self, config, warmed_dir):
        plain = build_report(
            MeasurementCampaign(
                population_config=config, spoofed_targets_per_provider=SPOOFED
            ).run()
        ).text
        cached = build_report(
            MeasurementCampaign(
                population_config=config,
                spoofed_targets_per_provider=SPOOFED,
                skeleton_cache_dir=warmed_dir,
            ).run()
        ).text
        assert cached == plain
        assert cache_counters()["misses"] == 0

    def test_generate_population_cached_matches_eager(self, config, warmed_dir):
        eager = generate_population(config)
        cached = generate_population_cached(SkeletonStore(warmed_dir), config)
        assert cache_counters()["misses"] == 0
        assert cached.config == eager.config
        assert len(cached.deployments) == len(eager.deployments)
        for ours, theirs in zip(cached.deployments, eager.deployments):
            assert ours.domain == theirs.domain
            for attribute in ("https_chain", "quic_chain"):
                ours_chain = getattr(ours, attribute)
                theirs_chain = getattr(theirs, attribute)
                assert (ours_chain is None) == (theirs_chain is None)
                if ours_chain is not None:
                    assert ours_chain.leaf.der == theirs_chain.leaf.der
                    assert len(ours_chain.certificates) == len(theirs_chain.certificates)

    def test_one_store_serves_every_scenario(self, config, references, warmed_dir):
        """Cross-scenario sharing: warm baseline shards, no new entries, no misses."""
        entries_before = SkeletonStore(warmed_dir).entries()
        for name in GRID_MEMBERS:
            member = load_scenario(name).population_config(base=config)
            reset_stores()
            reset_cache_counters()
            text = build_report(
                MeasurementCampaign(
                    population_config=member,
                    skeleton_cache_dir=warmed_dir,
                    **CAMPAIGN_KWARGS,
                ).run()
            ).text
            assert text == references[name], f"warm {name} drifted from cache-free"
            assert cache_counters()["misses"] == 0
        assert SkeletonStore(warmed_dir).entries() == entries_before

    def test_grid_campaign_through_the_store(self, config, references, warmed_dir):
        results = run_grid_campaign(
            load_grid(",".join(GRID_MEMBERS)),
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
            skeleton_cache_dir=warmed_dir,
        )
        assert cache_counters()["misses"] == 0
        for name in GRID_MEMBERS:
            assert build_report(results[name]).text == references[name]

    def test_range_slicing_across_generation_shard_boundary(self, tmp_path):
        size = GENERATION_SHARD_SIZE + 76
        config = PopulationConfig(size=size, seed=5)
        store = SkeletonStore(str(tmp_path / "skel"))
        start, stop = GENERATION_SHARD_SIZE - 20, GENERATION_SHARD_SIZE + 60
        cached = skeletons_for_range(store, config, start, stop)
        eager = population_module.deployments_for_range(
            config, start, stop, skeleton=True
        )
        assert cached == list(eager)
        with pytest.raises(ValueError, match="out of bounds"):
            skeletons_for_range(store, config, 0, size + 1)

    def test_materialised_range_matches_eager(self, config, warmed_dir):
        eager = population_module.deployments_for_range(config, 100, 140)
        cached = deployments_for_range(SkeletonStore(warmed_dir), config, 100, 140)
        assert len(cached) == len(eager)
        for ours, theirs in zip(cached, eager):
            assert ours.domain == theirs.domain
            if theirs.https_chain is not None:
                assert ours.https_chain.leaf.der == theirs.https_chain.leaf.der


class TestGoldenArtefacts:
    def test_golden_digests_through_a_warmed_cache(self, tmp_path):
        """The byte-pinned reference campaign, warm-started: zero drift."""
        golden_path = os.path.join(
            os.path.dirname(__file__), "golden", "report_digests.json"
        )
        with open(golden_path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        params = golden["campaign"]
        config = PopulationConfig(size=params["size"], seed=params["seed"])
        directory = str(tmp_path / "skel")
        warm(directory, config)
        reset_cache_counters()
        results = MeasurementCampaign(
            population=generate_population_cached(SkeletonStore(directory), config),
            run_sweep=True,
            sweep_sample_size=params["sweep_sample_size"],
            spoofed_targets_per_provider=params["spoofed_targets_per_provider"],
        ).run()
        assert cache_counters()["misses"] == 0
        with tempfile.TemporaryDirectory() as export_dir:
            export_evaluation(results, export_dir)
            for name in sorted(os.listdir(export_dir)):
                with open(os.path.join(export_dir, name), "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                assert digest == golden["digests"].get(name), (
                    f"warm-started {name} drifted from the golden artefact"
                )


def _warm_campaign_text(config, directory) -> str:
    return build_report(
        MeasurementCampaign(
            population_config=config, skeleton_cache_dir=directory, **CAMPAIGN_KWARGS
        ).run()
    ).text


class TestQuarantine:
    @pytest.fixture()
    def damaged_dir(self, warmed_dir, tmp_path):
        """A private copy of the warmed directory for destructive tests."""
        directory = str(tmp_path / "skel")
        shutil.copytree(warmed_dir, directory)
        return directory

    @pytest.mark.parametrize(
        "damage",
        [
            truncate_file,
            corrupt_file,
            lambda path: open(path, "wb").close(),  # emptied
        ],
        ids=["truncated", "corrupted", "emptied"],
    )
    def test_defective_file_is_quarantined_and_regenerated(
        self, config, references, damaged_dir, damage
    ):
        store = SkeletonStore(damaged_dir)
        victim = store.entries()[0]
        damage(os.path.join(damaged_dir, victim))
        assert _warm_campaign_text(config, damaged_dir) == references["plain"]
        assert cache_counters()["misses"] == 1
        fresh = SkeletonStore(damaged_dir)
        assert victim in fresh.entries()  # regenerated under the same address
        assert os.listdir(fresh.quarantine_directory)  # evidence kept

    def test_stale_format_version_is_quarantined(self, config, references, damaged_dir):
        store = SkeletonStore(damaged_dir)
        path = os.path.join(damaged_dir, store.entries()[0])
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data.replace(SKELETON_FORMAT, b"repro-skel/0", 1))
        assert _warm_campaign_text(config, damaged_dir) == references["plain"]
        assert os.listdir(SkeletonStore(damaged_dir).quarantine_directory)

    def test_foreign_shard_under_expected_name_is_quarantined(
        self, config, references, damaged_dir, tmp_path
    ):
        """A same-shape shard of another population, renamed to the expected
        filename, is internally consistent — only the embedded content
        address gives it away."""
        foreign_config = dataclasses.replace(config, seed=7)
        foreign_dir = str(tmp_path / "foreign")
        warm(foreign_dir, foreign_config)
        foreign_store = SkeletonStore(foreign_dir)
        foreign_path = os.path.join(foreign_dir, foreign_store.entries()[0])
        store = SkeletonStore(damaged_dir)
        victim = os.path.join(damaged_dir, store.entries()[0])
        shutil.copyfile(foreign_path, victim)
        reset_cache_counters()
        assert _warm_campaign_text(config, damaged_dir) == references["plain"]
        assert cache_counters()["misses"] == 1
        assert os.listdir(SkeletonStore(damaged_dir).quarantine_directory)

    def test_memo_is_authoritative_until_reset(self, config, tmp_path):
        directory = str(tmp_path / "skel")
        warm(directory, config)
        store = SkeletonStore(directory)
        shard, _ = store.load_or_generate(config, 0)
        corrupt_file(os.path.join(directory, store.entries()[0]))
        again, _ = store.load_or_generate(config, 0)
        assert again is shard  # decoded-shard memo: disk not consulted
        assert store.misses == 0
        store.reset_memo()
        store.load_or_generate(config, 0)  # now quarantines and regenerates
        assert store.misses == 1
        assert os.listdir(store.quarantine_directory)


@pytest.fixture(scope="module")
def warm_path_dir(tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("skel-warm-path"))
    warm(directory, PopulationConfig(size=WARM_PATH_SIZE, seed=2022))
    return directory


class TestWarmPathReadsOnlyTheStore:
    """A warm streamed scan expands no deferred leaf and builds no ranked list.

    Everything it needs — domain names included — is in the stored
    skeletons and leaf annexes; the columnar kernel reads key algorithm,
    field sizes and SAN share straight from the deferred leaf record.
    """

    @staticmethod
    def _reports(run, directory=None):
        config = PopulationConfig(size=WARM_PATH_SIZE, seed=2022)
        kwargs = dict(
            shard_size=700,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
            skeleton_cache_dir=directory,
        )
        if run == "grid":
            results = run_grid_campaign(
                load_grid(",".join(GRID_MEMBERS)), config=config, **kwargs
            )
            return [build_report(results[name]).text for name in GRID_MEMBERS]
        campaign = MeasurementCampaign(
            population_config=config,
            stream=True,
            run_sweep=run == "streamed-sweep",
            **kwargs,
        )
        return [build_report(campaign.run()).text]

    @pytest.mark.parametrize("run", ["streamed", "streamed-sweep", "grid"])
    def test_warm_run_expands_nothing_and_builds_no_ranked_list(
        self, warm_path_dir, monkeypatch, run
    ):
        reference = self._reports(run)  # cache-free
        reset_stores()
        reset_cache_counters()
        tranco_module._generate_tranco_list.cache_clear()
        expansions = []
        expand = issuance.expand_deferred_leaf_fields

        def counting_expand(der, record):
            expansions.append(record[1])
            return expand(der, record)

        monkeypatch.setattr(issuance, "expand_deferred_leaf_fields", counting_expand)
        assert self._reports(run, warm_path_dir) == reference
        counters = cache_counters()
        # Scanned in this process (the counters would otherwise stay 0),
        # entirely from the store.
        assert counters["hits"] > 0 and counters["misses"] == 0
        assert expansions == []
        assert tranco_module._generate_tranco_list.cache_info().misses == 0


class TestFailingDisk:
    """A store that cannot be written degrades to uncached, never crashes."""

    @staticmethod
    def _full_disk(path, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    def test_campaign_finishes_uncached_with_identical_bytes(
        self, config, references, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(skeleton_store_module, "atomic_write_bytes", self._full_disk)
        directory = str(tmp_path / "skel")
        with pytest.warns(RuntimeWarning, match="not writable"):
            text = _warm_campaign_text(config, directory)
        assert text == references["plain"]
        assert not [name for name in os.listdir(directory) if ".skel" in name]
        assert cache_counters()["write_errors"] > 0

    def test_one_warning_per_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(skeleton_store_module, "atomic_write_bytes", self._full_disk)
        config = PopulationConfig(size=WARM_PATH_SIZE, seed=2022)
        store = SkeletonStore(str(tmp_path / "skel"))
        with pytest.warns(RuntimeWarning) as caught:
            for index in range(shard_count(WARM_PATH_SIZE)):
                shard, cache = store.load_or_generate(config, index)
                assert len(shard.skeletons) > 0 and cache
        assert store.write_errors == shard_count(WARM_PATH_SIZE) > 1
        assert cache_counters()["write_errors"] == store.write_errors
        assert len([w for w in caught if "not writable" in str(w.message)]) == 1
        # The memo still serves the uncached shards in-process.
        store.load_or_generate(config, 0)
        assert store.hits == 1


class TestDirectoryBinding:
    def test_rebinding_the_same_population_is_fine(self, config, warmed_dir):
        SkeletonStore(warmed_dir).bind(config)

    @pytest.mark.parametrize(
        "other",
        [
            lambda config: dataclasses.replace(config, size=600),
            lambda config: dataclasses.replace(config, seed=7),
        ],
        ids=["size", "seed"],
    )
    def test_mismatched_population_is_rejected(self, config, warmed_dir, other):
        with pytest.raises(SkeletonStoreError, match="different population"):
            SkeletonStore(warmed_dir).bind(other(config))

    def test_mismatched_cache_fails_the_campaign_eagerly(self, config, warmed_dir):
        campaign = MeasurementCampaign(
            population_config=dataclasses.replace(config, size=240),
            skeleton_cache_dir=warmed_dir,
            **CAMPAIGN_KWARGS,
        )
        with pytest.raises(SkeletonStoreError, match="different population"):
            campaign.run()

    def test_unreadable_metadata_is_rejected(self, config, tmp_path):
        store = SkeletonStore(str(tmp_path / "skel"))
        with open(store.metadata_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(SkeletonStoreError, match="unreadable"):
            store.bind(config)

    def test_store_caches_baseline_shards_only(self, config, tmp_path):
        member = load_scenario("trimmed-chains").population_config(base=config)
        assert member.scenario is not None and not member.scenario.is_identity
        store = SkeletonStore(str(tmp_path / "skel"))
        with pytest.raises(SkeletonStoreError, match="baseline"):
            store.load_or_generate(member, 0)


class TestWarmAndCounters:
    def test_warm_twice_reports_hits(self, config, tmp_path):
        directory = str(tmp_path / "skel")
        assert warm(directory, config) == (0, 1)
        assert warm(directory, config) == (1, 0)
        assert cache_counters() == {"hits": 1, "misses": 1, "write_errors": 0}
        reset_cache_counters()
        assert cache_counters() == {"hits": 0, "misses": 0, "write_errors": 0}

    def test_warm_keeps_no_decoded_shard(self, config, tmp_path):
        store = SkeletonStore(str(tmp_path / "skel"))
        assert warm(store, config) == (0, 1)
        assert warm(store, config) == (1, 0)
        assert not store._memo  # nothing read back; no chains held for the GC

    def test_warm_strips_scenarios(self, config, tmp_path):
        directory = str(tmp_path / "skel")
        member = load_scenario("trimmed-chains").population_config(base=config)
        assert warm(directory, member) == (0, 1)
        assert warm(directory, config) == (1, 0)  # same baseline entry

    def test_store_registry_is_per_directory_until_reset(self, tmp_path):
        directory = str(tmp_path / "skel")
        store = store_for(directory)
        assert store_for(directory) is store
        assert store_for(str(tmp_path / "other")) is not store
        reset_stores()
        assert store_for(directory) is not store


class TestWarmPathObjects:
    def test_chain_spec_pickles_without_its_hash_memo(self, shard_and_cache):
        _, cache = shard_and_cache
        spec = next(iter(cache))
        memoized = hash(spec)
        assert "_hash" not in spec.__getstate__()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == memoized

    def test_deferred_leaf_expands_to_the_issued_fields(self, config, warmed_dir):
        eager = population_module.deployments_for_range(config, 0, 24)
        cached = deployments_for_range(SkeletonStore(warmed_dir), config, 0, 24)
        compared = 0
        for ours, theirs in zip(cached, eager):
            if theirs.https_chain is None:
                continue
            ours_leaf = ours.https_chain.leaf
            theirs_leaf = theirs.https_chain.leaf
            assert ours_leaf.der == theirs_leaf.der
            assert ours_leaf.san_names == theirs_leaf.san_names
            # The deferred fields expand on first read, to the issued values.
            assert ours_leaf.subject == theirs_leaf.subject
            assert ours_leaf.validity == theirs_leaf.validity
            assert ours_leaf.extensions == theirs_leaf.extensions
            assert "_deferred" not in ours_leaf.__dict__
            compared += 1
        assert compared > 0

    def test_deferred_leaf_pickles_after_expansion(self, config, warmed_dir):
        shard, cache = SkeletonStore(warmed_dir).load_or_generate(config, 0)
        leaf = next(iter(cache.values())).leaf
        assert "_deferred" in leaf.__dict__
        clone = pickle.loads(pickle.dumps(leaf))
        assert "_deferred" not in clone.__dict__
        assert clone.der == leaf.der
        assert clone.subject == leaf.subject
        assert clone.validity == leaf.validity

    @pytest.mark.parametrize("algorithm", list(KeyAlgorithm), ids=lambda a: a.name)
    def test_rebuilt_leaf_answers_scan_fields_from_the_record(self, algorithm):
        """Key algorithm, field sizes and SAN share never expand the record."""
        sans = ("record.test", "www.record.test", "api.record.test")
        for label, profile in default_hierarchy().profiles.items():
            template = leaf_template(profile.issuer, algorithm)
            fast = issue_leaf_fast(template, "record.test", sans, 90)
            spec = ChainSpec(
                domain="record.test",
                ca_profile=label,
                key_algorithm=algorithm,
                san_count=len(sans),
                name_stem="record.test",
                validity_days=90,
            )
            der, *_, row = leaf_record(fast)
            rebuilt = leaf_from_record(template, spec, der, row)
            assert rebuilt.key_algorithm is fast.key_algorithm is algorithm, label
            assert san_byte_share(rebuilt) == san_byte_share(fast), label
            assert field_size_row(rebuilt) == field_size_row(fast), label
            assert rebuilt.size == fast.size, label
            assert "_deferred" in rebuilt.__dict__, label
            # Expanding reads serial, slices and extension values off the DER.
            assert rebuilt == fast, label
            assert rebuilt.tbs_der == fast.tbs_der, label
            assert rebuilt.signature_value == fast.signature_value, label
            assert rebuilt.san_names == fast.san_names, label
            assert [e.encode() for e in rebuilt.extensions] == [
                e.encode() for e in fast.extensions
            ], label

    def test_memo_probes_do_not_expand(self, config, warmed_dir):
        _, cache = SkeletonStore(warmed_dir).load_or_generate(config, 0)
        leaf = next(iter(cache.values())).leaf
        assert getattr(leaf, "_absent", None) is None
        assert getattr(leaf, "_field_sizes", None) is None
        assert "_deferred" in leaf.__dict__
        leaf.subject  # a postponed field still expands on first read
        assert "_deferred" not in leaf.__dict__


class TestMaterializeSkeletons:
    """The one warm materialiser equals per-skeleton ``materialize``."""

    @pytest.mark.parametrize("case", ["warm-seeded", "empty-cache", "trimmed-chains"])
    def test_equals_per_skeleton_materialize(self, config, warmed_dir, case):
        seeded = {}
        skeletons = skeletons_for_range(
            SkeletonStore(warmed_dir), config, 0, POPULATION_SIZE, chain_cache=seeded
        )
        assert seeded  # the annexes seeded one chain per spec
        if case == "trimmed-chains":
            skeletons = load_scenario(case).transform_skeletons(skeletons)
        cache = {} if case == "empty-cache" else seeded
        hierarchy = default_hierarchy()
        fast_cache, reference_cache = dict(cache), dict(cache)
        fast = materialize_skeletons(skeletons, hierarchy, fast_cache)
        reference = [
            skeleton.materialize(hierarchy, reference_cache) for skeleton in skeletons
        ]
        assert len(fast) == len(skeletons) == POPULATION_SIZE
        assert fast == reference
        assert fast_cache.keys() == reference_cache.keys()
        # Warm: every spec hit, nothing issued.  Otherwise misses fell back
        # to ``materialize`` and extended the cache like the reference did.
        assert (len(fast_cache) == len(cache)) is (case == "warm-seeded")


class TestWarmShardIndices:
    @pytest.mark.parametrize("index", [-1, shard_count(POPULATION_SIZE)])
    def test_out_of_range_index_is_rejected_before_any_write(self, config, tmp_path, index):
        directory = tmp_path / "skel"
        with pytest.raises(ValueError, match="out of range"):
            warm(str(directory), config, shard_indices=[index])
        assert not directory.exists()


class TestConcurrentWarms:
    """Concurrent writers race towards identical bytes: nothing is torn."""

    def test_three_concurrent_warms_leave_one_file_per_key(self, tmp_path):
        size = 3000
        directory = tmp_path / "skel"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
            + [env["PYTHONPATH"]] * bool(env.get("PYTHONPATH"))
        )
        argv = [sys.executable, "-m", "repro", "skeletons", "warm", str(directory),
                "--size", str(size)]
        processes = [
            subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(3)
        ]
        for process in processes:
            _, error = process.communicate(timeout=300)
            assert process.returncode == 0, error.decode()
        config = PopulationConfig(size=size, seed=2022)
        expected = sorted(
            SkeletonKey.for_config(config, index).filename()
            for index in range(shard_count(size))
        )
        store = SkeletonStore(str(directory))
        assert store.entries() == expected
        assert sorted(os.listdir(directory)) == sorted(expected + ["skeletons.json"])
        assert not os.path.isdir(store.quarantine_directory)
        kwargs = dict(
            stream=True, shard_size=700, scan_backend="columnar",
            spoofed_targets_per_provider=SPOOFED,
        )
        reference = build_report(
            MeasurementCampaign(population_config=config, **kwargs).run()
        ).text
        reset_stores()
        warm_text = build_report(
            MeasurementCampaign(
                population_config=config, skeleton_cache_dir=str(directory), **kwargs
            ).run()
        ).text
        assert cache_counters()["misses"] == 0
        assert warm_text == reference


class TestColumnPath:
    """A warm columnar shard visit reads the stored columns, not objects."""

    SPEC = ReductionSpec(spoof_limit_per_provider=SPOOFED)

    @staticmethod
    def _task(directory, start, stop, index):
        return ShardTask(
            index=index,
            population_config=PopulationConfig(size=WARM_PATH_SIZE, seed=2022),
            start=start,
            stop=stop,
            run_sweep=True,
            sweep_local_selection=(index, 3),
            scan_backend="columnar",
            skeleton_cache_dir=directory,
        )

    @pytest.mark.parametrize("start, stop", [(0, 700), (700, 1400), (1400, 2000)])
    def test_visit_builds_no_object_view_but_spoof_targets(
        self, warm_path_dir, monkeypatch, start, stop
    ):
        task = self._task(warm_path_dir, start, stop, start // 700)
        reference = streaming_module._summarize_visit(task, self.SPEC)
        reset_stores()

        def refuse(*args, **kwargs):
            raise AssertionError("the warm columnar visit built an object view")

        for view in ("shard", "chain_cache"):
            monkeypatch.setattr(skeleton_store_module.StoredShard, view, property(refuse))
        monkeypatch.setattr(SkeletonColumns, "shard", refuse)
        for module in (streaming_module, skeleton_store_module):
            monkeypatch.setattr(module, "materialize_skeletons", refuse)
        monkeypatch.setattr(streaming_module, "lower_deployments", refuse)
        rows = []
        materialise = skeleton_store_module.StoredShard.deployment

        def counting_deployment(record, row):
            rows.append(row)
            return materialise(record, row)

        monkeypatch.setattr(skeleton_store_module.StoredShard, "deployment", counting_deployment)
        leaves = []
        rebuild_leaf = skeleton_store_module.leaf_from_record

        def counting_leaf(*args):
            leaves.append(args[1])
            return rebuild_leaf(*args)

        monkeypatch.setattr(skeleton_store_module, "leaf_from_record", counting_leaf)
        summaries = streaming_module._summarize_visit(task, self.SPEC)
        assert summaries == reference
        (summary,) = summaries
        assert len(rows) == len(summary.spoof_candidates) > 0
        assert len(leaves) <= 2 * len(rows)

    def test_visit_equals_lowered_deployments(self, warm_path_dir):
        task = self._task(warm_path_dir, 700, 1400, 1)
        (summary,) = streaming_module._summarize_visit(task, self.SPEC)
        deployments = dataclasses.replace(task, skeleton_cache_dir=None).resolve_deployments()
        assert summarize_shard_columnar(task, lower_deployments(deployments), self.SPEC) == summary
