"""Checkpoint-store integrity: every defect is detected, quarantined, re-scanned.

A checkpoint is an optimisation, never a source of truth: the store must
refuse to trust a torn, corrupted, stale-format or foreign file — each is
moved into ``quarantine/`` and its shard simply re-scanned, and the resumed
report stays byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.analysis.report import build_report
from repro.core.ioutil import atomic_write_bytes, atomic_write_text
from repro.scanners import MeasurementCampaign
from repro.scanners.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointKey,
    CheckpointStore,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.scanners.faults import corrupt_file, truncate_file
from repro.scanners.streaming import ShardSummary
from repro.scenarios import BUILTIN_SCENARIOS
from repro.webpki.population import PopulationConfig

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

POPULATION_SIZE = 360
SHARD_SIZE = 120
CAMPAIGN_KWARGS = dict(stream=True, shard_size=SHARD_SIZE, spoofed_targets_per_provider=12)


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def checkpointed_run(config, tmp_path_factory):
    """One finished checkpointed campaign: (reference report text, directory)."""
    directory = tmp_path_factory.mktemp("ckpt-reference")
    results = MeasurementCampaign(
        population_config=config, checkpoint_dir=str(directory), **CAMPAIGN_KWARGS
    ).run()
    return build_report(results).text, directory


def _checkpoint_files(directory) -> list:
    return sorted(
        name for name in os.listdir(directory) if name.endswith(".ckpt")
    )


def _resume(config, directory):
    results = MeasurementCampaign(
        population_config=config,
        checkpoint_dir=str(directory),
        resume=True,
        **CAMPAIGN_KWARGS,
    ).run()
    return build_report(results).text


def _damaged_copy(checkpointed_run, tmp_path, damage) -> tuple:
    """Copy the reference checkpoint dir and apply ``damage`` to one file."""
    reference, source = checkpointed_run
    directory = tmp_path / "ckpt"
    shutil.copytree(source, directory)
    victim = os.path.join(directory, _checkpoint_files(directory)[1])
    damage(victim)
    return reference, directory, os.path.basename(victim)


class TestWireFormat:
    def test_round_trip(self):
        payload = {"shard": 7, "values": [1, 2, 3]}
        assert decode_checkpoint(encode_checkpoint(payload)) == payload

    def test_header_carries_version_and_digest(self):
        data = encode_checkpoint("x")
        header = data.split(b"\n", 1)[0].split(b" ")
        assert header[0] == CHECKPOINT_FORMAT
        assert len(header) == 3 and len(header[2]) == 64

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data[: len(data) // 2],            # truncated
            lambda data: data.replace(b"/1", b"/0", 1),     # stale version
            lambda data: b"",                               # empty file
            lambda data: b"not a checkpoint at all",        # garbage
        ],
    )
    def test_defective_bytes_raise(self, mangle):
        data = encode_checkpoint({"shard": 1})
        with pytest.raises(CheckpointError):
            decode_checkpoint(mangle(data))

    def test_flipped_payload_byte_raises(self):
        data = bytearray(encode_checkpoint({"shard": 1}))
        data[-3] ^= 0xFF
        with pytest.raises(CheckpointError, match="digest mismatch"):
            decode_checkpoint(bytes(data))


class TestContentAddressing:
    def test_filename_embeds_index_and_campaign_digest(self, config):
        key = CheckpointKey.for_campaign(config, SHARD_SIZE, 3)
        assert key.filename().startswith("shard-000003-")
        assert key.filename().endswith(".ckpt")

    def test_different_campaign_means_different_filename(self, config):
        base = CheckpointKey.for_campaign(config, SHARD_SIZE, 0)
        other_seed = CheckpointKey.for_campaign(
            PopulationConfig(size=POPULATION_SIZE, seed=7), SHARD_SIZE, 0
        )
        other_shards = CheckpointKey.for_campaign(config, 60, 0)
        scenario_config = BUILTIN_SCENARIOS["trimmed-chains"].population_config(
            base=config
        )
        other_scenario = CheckpointKey.for_campaign(scenario_config, SHARD_SIZE, 0)
        names = {
            base.filename(),
            other_seed.filename(),
            other_shards.filename(),
            other_scenario.filename(),
        }
        assert len(names) == 4


class TestQuarantine:
    def test_truncated_checkpoint_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        reference, directory, victim = _damaged_copy(
            checkpointed_run, tmp_path, truncate_file
        )
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")
        # The re-scanned shard was re-checkpointed with valid bytes.
        assert victim in _checkpoint_files(directory)

    def test_flipped_byte_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        reference, directory, victim = _damaged_copy(
            checkpointed_run, tmp_path, corrupt_file
        )
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")

    def test_stale_format_version_is_quarantined_and_rescanned(
        self, config, checkpointed_run, tmp_path
    ):
        def stale(path):
            with open(path, "rb") as handle:
                data = handle.read()
            atomic_write_bytes(path, data.replace(b"repro-ckpt/1", b"repro-ckpt/0", 1))

        reference, directory, victim = _damaged_copy(checkpointed_run, tmp_path, stale)
        assert _resume(config, directory) == reference
        assert victim in os.listdir(directory / "quarantine")

    def test_foreign_summary_under_expected_name_is_quarantined(
        self, config, checkpointed_run, tmp_path
    ):
        """A file whose embedded summary belongs elsewhere is never trusted."""
        reference, source = checkpointed_run
        directory = tmp_path / "ckpt"
        shutil.copytree(source, directory)
        store = CheckpointStore(str(directory))
        key = CheckpointKey.for_campaign(config, SHARD_SIZE, 1)
        foreign = SimpleNamespace(index=1, scenario_fingerprint="0" * 64)
        store.save(key, foreign)
        assert store.load(key) is None
        assert os.listdir(directory / "quarantine")
        assert _resume(config, directory) == reference

    def test_quarantine_never_overwrites_evidence(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for _ in range(2):
            path = tmp_path / "shard-000000-aaaa.ckpt"
            path.write_bytes(b"garbage")
            store.quarantine(str(path))
        assert len(os.listdir(store.quarantine_directory)) == 2


class TestAttemptAwareSaves:
    """The late-writer guard: a timed-out attempt's result surfacing after its
    retry already checkpointed must never clobber the newer bytes."""

    def _key(self, config):
        return CheckpointKey.for_campaign(config, SHARD_SIZE, 0)

    def test_stale_attempt_write_is_suppressed(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        key = self._key(config)
        retry = SimpleNamespace(index=0, scenario_fingerprint="f" * 64, origin="retry")
        late = SimpleNamespace(index=0, scenario_fingerprint="f" * 64, origin="late")
        path = store.save(key, retry, attempt=1)
        persisted = open(path, "rb").read()
        # The stalled attempt-0 writer lands afterwards: skipped, same path.
        assert store.save(key, late, attempt=0) == path
        assert open(path, "rb").read() == persisted

    def test_equal_and_newer_attempts_overwrite(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        key = self._key(config)
        path = store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="a" * 64), attempt=0
        )
        first = open(path, "rb").read()
        store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="b" * 64), attempt=0
        )
        second = open(path, "rb").read()
        assert second != first  # same attempt: deterministic rewrite is fine
        store.save(
            key, SimpleNamespace(index=0, scenario_fingerprint="c" * 64), attempt=2
        )
        assert open(path, "rb").read() != second

    def test_suppression_is_per_file_not_per_store(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(self._key(config), SimpleNamespace(index=0), attempt=3)
        other = CheckpointKey.for_campaign(config, SHARD_SIZE, 1)
        payload = SimpleNamespace(index=1, scenario_fingerprint="d" * 64)
        path = store.save(other, payload, attempt=0)
        assert decode_checkpoint(open(path, "rb").read()).index == 1


class TestCampaignBinding:
    def test_mixed_campaign_directory_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        with pytest.raises(CheckpointError, match="different campaign"):
            store.bind_campaign(
                PopulationConfig(size=POPULATION_SIZE, seed=7), SHARD_SIZE
            )
        with pytest.raises(CheckpointError, match="shard_size"):
            store.bind_campaign(config, 60)

    def test_mixed_scenario_directory_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        scenario_config = BUILTIN_SCENARIOS["ecdsa-only"].population_config(base=config)
        with pytest.raises(CheckpointError, match="scenario"):
            store.bind_campaign(scenario_config, SHARD_SIZE)

    def test_rebinding_the_same_campaign_is_fine(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.bind_campaign(config, SHARD_SIZE)
        store.bind_campaign(config, SHARD_SIZE)

    def test_unreadable_metadata_is_rejected(self, config, tmp_path):
        store = CheckpointStore(str(tmp_path))
        (tmp_path / "campaign.json").write_text("{torn", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.bind_campaign(config, SHARD_SIZE)


class TestManifests:
    def test_incomplete_manifest_names_missing_shards(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write_incomplete_manifest(completed=[0, 2], incomplete=[3, 1])
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest == {"completed": [0, 2], "incomplete": [1, 3]}
        store.clear_incomplete_manifest()
        assert not os.path.exists(path)
        store.clear_incomplete_manifest()  # idempotent


class TestDeterministicBytes:
    """Checkpoint bytes are a function of the campaign, not of the process."""

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        directories = []
        for hash_seed in ("1", "2"):
            directory = tmp_path / f"ckpt-{hash_seed}"
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "campaign",
                    "--size", str(POPULATION_SIZE), "--seed", "2022",
                    "--stream", "--shard-size", str(SHARD_SIZE),
                    "--checkpoint-dir", str(directory),
                    "--output", str(tmp_path / f"report-{hash_seed}.txt"),
                ],
                capture_output=True, text=True, timeout=300,
                env=dict(env, PYTHONHASHSEED=hash_seed),
            )
            assert completed.returncode == 0, completed.stderr
            directories.append(directory)
        names = sorted(os.listdir(directories[0]))
        assert len(_checkpoint_files(directories[0])) == POPULATION_SIZE // SHARD_SIZE
        assert sorted(os.listdir(directories[1])) == names
        for name in names:
            assert (directories[0] / name).read_bytes() == (
                directories[1] / name
            ).read_bytes(), name

    def test_digests_are_stored_sorted(self, checkpointed_run):
        _, directory = checkpointed_run
        name = _checkpoint_files(directory)[0]
        summary = decode_checkpoint((directory / name).read_bytes())
        assert isinstance(summary.chain_digests, frozenset) and summary.chain_digests
        assert summary.__getstate__()["chain_digests"] == sorted(summary.chain_digests)

    def test_summary_pickled_with_its_set_still_loads(self, checkpointed_run):
        """Checkpoints written before the digests were sorted still resume."""
        _, directory = checkpointed_run
        name = _checkpoint_files(directory)[0]
        summary = decode_checkpoint((directory / name).read_bytes())

        class SetStatePickler(pickle.Pickler):
            # The default reduction, with the frozenset left in the state.
            def reducer_override(self, obj):
                if type(obj) is ShardSummary:
                    return copyreg.__newobj__, (ShardSummary,), dict(obj.__dict__)
                return NotImplemented

        buffer = io.BytesIO()
        SetStatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(summary)
        loaded = pickle.loads(buffer.getvalue())
        assert isinstance(loaded.chain_digests, frozenset)
        assert loaded == summary


class TestAtomicWrites:
    def test_no_tmp_files_survive(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "first\n")
        atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_failed_write_leaves_destination_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "intact\n")
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            atomic_write_text(str(target), "torn\n")
        assert target.read_text() == "intact\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]


def _boom(*_args):
    raise RuntimeError("injected replace failure")
