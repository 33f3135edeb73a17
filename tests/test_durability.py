"""Durability differentials: injected faults must not move a single byte.

Every test here runs the streaming campaign under a scripted
:class:`~repro.scanners.faults.FaultPlan` — a worker raises, dies by SIGKILL
or stalls past the dispatch timeout, a checkpoint is corrupted, the whole run
is killed mid-campaign — and then pins that the recovered report (and the
exported CSVs) is byte-identical to an uninterrupted run.  Faults are keyed
by ``(shard index, attempt)``, so "crash once, succeed on retry" is
deterministic and repeatable.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro.scanners.streaming as streaming
from repro.analysis.export import export_evaluation
from repro.analysis.report import build_report
from repro.scanners import MeasurementCampaign
from repro.scanners.checkpoint import CheckpointKey, CheckpointStore
from repro.scanners.faults import (
    FAULT_PLAN_ENV,
    CheckpointFault,
    FaultPlan,
    FaultPlanError,
    WorkerFault,
    load_fault_plan,
)
from repro.scanners.sharding import (
    RetryPolicy,
    ShardDispatchError,
    dispatch_with_retry,
)
from repro.webpki.population import PopulationConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

POPULATION_SIZE = 480
SHARD_SIZE = 120  # -> shards 0..3
CAMPAIGN_KWARGS = dict(stream=True, shard_size=SHARD_SIZE, spoofed_targets_per_provider=12)

#: Fast retries: tests inject failures on purpose, waiting is pure overhead.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.02)


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def reference(config):
    """The uninterrupted run every faulted run must reproduce byte for byte."""
    results = MeasurementCampaign(population_config=config, **CAMPAIGN_KWARGS).run()
    return build_report(results).text


def _run(config, **kwargs):
    merged = dict(CAMPAIGN_KWARGS)
    merged.update(kwargs)
    return MeasurementCampaign(population_config=config, **merged).run()


def _export_digests(results, directory) -> dict:
    export_evaluation(results, str(directory))
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestWorkerFaultRecovery:
    def test_raise_once_is_retried_byte_identically(self, config, reference):
        plan = FaultPlan(worker=(WorkerFault(shard=1, attempt=0, kind="raise"),))
        results = _run(config, retry_policy=FAST_RETRIES, fault_plan=plan)
        assert build_report(results).text == reference

    def test_raise_on_every_shard_once_still_recovers(self, config, reference):
        plan = FaultPlan(
            worker=tuple(
                WorkerFault(shard=shard, attempt=0, kind="raise") for shard in range(4)
            )
        )
        results = _run(config, retry_policy=FAST_RETRIES, fault_plan=plan)
        assert build_report(results).text == reference

    def test_exhausted_retries_fail_loudly_with_manifest(self, config, tmp_path):
        plan = FaultPlan(
            worker=tuple(
                WorkerFault(shard=1, attempt=attempt, kind="raise")
                for attempt in range(FAST_RETRIES.max_attempts)
            )
        )
        with pytest.raises(ShardDispatchError) as excinfo:
            _run(
                config,
                retry_policy=FAST_RETRIES,
                fault_plan=plan,
                checkpoint_dir=str(tmp_path),
            )
        assert excinfo.value.incomplete == (1,)
        assert excinfo.value.completed == (0, 2, 3)
        with open(tmp_path / "incomplete.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest == {"completed": [0, 2, 3], "incomplete": [1]}

    def test_manifest_is_cleared_by_a_successful_resume(
        self, config, reference, tmp_path
    ):
        plan = FaultPlan(
            worker=tuple(
                WorkerFault(shard=1, attempt=attempt, kind="raise")
                for attempt in range(FAST_RETRIES.max_attempts)
            )
        )
        with pytest.raises(ShardDispatchError):
            _run(
                config,
                retry_policy=FAST_RETRIES,
                fault_plan=plan,
                checkpoint_dir=str(tmp_path),
            )
        results = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert build_report(results).text == reference
        assert not (tmp_path / "incomplete.json").exists()

    def test_killed_worker_breaks_the_pool_and_recovers(self, config, reference):
        plan = FaultPlan(worker=(WorkerFault(shard=2, attempt=0, kind="kill"),))
        results = _run(config, workers=2, retry_policy=FAST_RETRIES, fault_plan=plan)
        assert build_report(results).text == reference

    def test_stalled_shard_times_out_and_recovers(self, config, reference):
        plan = FaultPlan(
            worker=(WorkerFault(shard=0, attempt=0, kind="stall", stall_seconds=30.0),)
        )
        policy = RetryPolicy(
            max_attempts=3, shard_timeout=1.0, backoff_base=0.01, backoff_cap=0.02
        )
        results = _run(config, workers=2, retry_policy=policy, fault_plan=plan)
        assert build_report(results).text == reference

    def test_three_stalled_shards_share_one_timeout_window(self, config, reference):
        """The regression the shared deadline fixes: K simultaneous stalls used
        to serialise into K full timeout windows; now the round abandons all
        of them together after ~one window, and the retries still land on the
        reference bytes."""
        plan = FaultPlan(
            worker=tuple(
                WorkerFault(shard=shard, attempt=0, kind="stall", stall_seconds=30.0)
                for shard in (0, 1, 2)
            )
        )
        policy = RetryPolicy(
            max_attempts=3, shard_timeout=2.5, backoff_base=0.01, backoff_cap=0.02
        )
        start = time.monotonic()
        results = _run(config, workers=4, retry_policy=policy, fault_plan=plan)
        elapsed = time.monotonic() - start
        assert build_report(results).text == reference
        # One shared window (2.5s) + scan work; the serial accumulation bug
        # would burn >= 3 windows (7.5s) before the first retry even starts.
        assert elapsed < 6.0, f"round took {elapsed:.1f}s — timeout windows serialised?"


#: Process-pool workers must be picklable, hence module level: sleep for the
#: scripted duration, then return the shard index.
def _sleep_worker(payload):
    index, seconds = payload
    time.sleep(seconds)
    return index


class TestSharedTimeoutWindow:
    """Unit-level pin on the dispatcher itself, free of scan-work noise."""

    STALLED = frozenset({0, 2, 4})
    TIMEOUT = 1.5

    def test_simultaneous_stalls_cost_one_window_not_k(self):
        policy = RetryPolicy(
            max_attempts=2,
            shard_timeout=self.TIMEOUT,
            backoff_base=0.01,
            backoff_cap=0.02,
        )
        collected = {}

        def make_payload(index, attempt):
            stalled = attempt == 0 and index in self.STALLED
            return (index, 30.0 if stalled else 0.0)

        start = time.monotonic()
        dispatch_with_retry(
            list(range(6)),
            make_payload,
            _sleep_worker,
            workers=6,
            policy=policy,
            on_result=lambda index, result, attempt: collected.__setitem__(
                index, (result, attempt)
            ),
        )
        elapsed = time.monotonic() - start
        # Every shard completed exactly once; the stalled three on attempt 1.
        assert collected == {
            index: (index, 1 if index in self.STALLED else 0) for index in range(6)
        }
        # One shared window plus pool spin-up; the serial per-future wait this
        # pins against needed >= 3 * TIMEOUT = 4.5s of timeouts alone.
        assert elapsed < 3 * self.TIMEOUT, (
            f"dispatch took {elapsed:.1f}s for 3 stalls at a {self.TIMEOUT}s "
            "timeout — windows serialised?"
        )

    def test_stalled_workers_do_not_outlive_the_dispatch(self):
        policy = RetryPolicy(
            max_attempts=2, shard_timeout=1.0, backoff_base=0.01, backoff_cap=0.02
        )
        dispatch_with_retry(
            [0, 1],
            lambda index, attempt: (index, 30.0 if (index, attempt) == (0, 0) else 0.0),
            _sleep_worker,
            workers=2,
            policy=policy,
            on_result=lambda index, result, attempt: None,
        )
        # The retry round's idle workers exit on their own within moments;
        # the abandoned round's stalled worker would sleep on for 30 s.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestResume:
    def test_resume_dispatches_only_missing_shards(
        self, config, reference, tmp_path, monkeypatch
    ):
        _run(config, checkpoint_dir=str(tmp_path))
        missing = CheckpointKey.for_campaign(config, SHARD_SIZE, 2)
        os.unlink(tmp_path / missing.filename())

        dispatched = []
        original = streaming.dispatch_with_retry

        def spy(indices, *args, **kwargs):
            dispatched.append(list(indices))
            return original(indices, *args, **kwargs)

        monkeypatch.setattr(streaming, "dispatch_with_retry", spy)
        results = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert dispatched == [[2]]
        assert build_report(results).text == reference

    def test_resume_of_a_complete_directory_dispatches_nothing(
        self, config, reference, tmp_path, monkeypatch
    ):
        _run(config, checkpoint_dir=str(tmp_path))
        dispatched = []
        original = streaming.dispatch_with_retry

        def spy(indices, *args, **kwargs):
            dispatched.append(list(indices))
            return original(indices, *args, **kwargs)

        monkeypatch.setattr(streaming, "dispatch_with_retry", spy)
        results = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert dispatched == [[]]
        assert build_report(results).text == reference

    def test_interrupt_corrupt_resume_is_byte_identical(
        self, config, reference, tmp_path
    ):
        """The acceptance scenario: crash at a shard, corrupt a checkpoint, resume."""
        plan = FaultPlan(
            worker=(WorkerFault(shard=1, attempt=0, kind="raise"),),
            checkpoint=(CheckpointFault(shard=2, kind="corrupt"),),
        )
        first = _run(
            config,
            retry_policy=FAST_RETRIES,
            fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        assert build_report(first).text == reference  # faults never move bytes
        # The resume must notice shard 2's corrupted checkpoint, quarantine it
        # and re-scan — and still land on the same report.
        resumed = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert build_report(resumed).text == reference
        quarantined = os.listdir(tmp_path / "quarantine")
        assert len(quarantined) == 1
        assert quarantined[0].startswith("shard-000002-")

    def test_stall_then_resume_is_byte_identical(self, config, reference, tmp_path):
        """A timed-out attempt whose retry checkpointed must leave a directory
        that resumes byte-identically — the late-writer race fixed by
        attempt-aware saves."""
        plan = FaultPlan(
            worker=(WorkerFault(shard=1, attempt=0, kind="stall", stall_seconds=30.0),)
        )
        policy = RetryPolicy(
            max_attempts=3, shard_timeout=1.0, backoff_base=0.01, backoff_cap=0.02
        )
        results = _run(
            config,
            workers=2,
            retry_policy=policy,
            fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        assert build_report(results).text == reference
        resumed = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert build_report(resumed).text == reference
        # All four shards checkpointed — shard 1 by its retry attempt.
        store = CheckpointStore(str(tmp_path))
        for index in range(4):
            key = CheckpointKey.for_campaign(config, SHARD_SIZE, index)
            assert store.load(key) is not None

    def test_checkpoint_fault_keyed_to_retry_attempt_fires_only_then(
        self, config, reference, tmp_path
    ):
        """``attempt=1`` narrows the corruption to the retry's checkpoint: the
        resume must quarantine exactly that shard and re-scan it."""
        plan = FaultPlan(
            worker=(WorkerFault(shard=2, attempt=0, kind="raise"),),
            checkpoint=(CheckpointFault(shard=2, kind="corrupt", attempt=1),),
        )
        first = _run(
            config,
            retry_policy=FAST_RETRIES,
            fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        assert build_report(first).text == reference
        resumed = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert build_report(resumed).text == reference
        quarantined = os.listdir(tmp_path / "quarantine")
        assert len(quarantined) == 1
        assert quarantined[0].startswith("shard-000002-")

    def test_checkpoint_fault_keyed_to_a_missed_attempt_never_fires(
        self, config, reference, tmp_path, monkeypatch
    ):
        """Shard 2's attempt 0 raises before checkpointing, so a fault keyed
        to attempt 0 has nothing to damage: the retry's checkpoint stays
        valid and the resume dispatches nothing."""
        plan = FaultPlan(
            worker=(WorkerFault(shard=2, attempt=0, kind="raise"),),
            checkpoint=(CheckpointFault(shard=2, kind="corrupt", attempt=0),),
        )
        first = _run(
            config,
            retry_policy=FAST_RETRIES,
            fault_plan=plan,
            checkpoint_dir=str(tmp_path),
        )
        assert build_report(first).text == reference

        dispatched = []
        original = streaming.dispatch_with_retry

        def spy(indices, *args, **kwargs):
            dispatched.append(list(indices))
            return original(indices, *args, **kwargs)

        monkeypatch.setattr(streaming, "dispatch_with_retry", spy)
        resumed = _run(config, checkpoint_dir=str(tmp_path), resume=True)
        assert dispatched == [[]]
        assert build_report(resumed).text == reference
        assert not os.path.exists(tmp_path / "quarantine")

    def test_exports_after_faulted_resume_are_byte_identical(
        self, config, tmp_path
    ):
        clean = _run(config)
        expected = _export_digests(clean, tmp_path / "clean")

        plan = FaultPlan(
            worker=(WorkerFault(shard=0, attempt=0, kind="raise"),),
            checkpoint=(CheckpointFault(shard=3, kind="truncate"),),
        )
        _run(
            config,
            retry_policy=FAST_RETRIES,
            fault_plan=plan,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        resumed = _run(config, checkpoint_dir=str(tmp_path / "ckpt"), resume=True)
        assert _export_digests(resumed, tmp_path / "resumed") == expected

    def test_checkpointing_requires_the_streaming_pipeline(self, config, tmp_path):
        with pytest.raises(ValueError, match="stream"):
            MeasurementCampaign(
                population_config=config, checkpoint_dir=str(tmp_path)
            )


class TestFaultPlanSerialisation:
    PLAN = FaultPlan(
        worker=(
            WorkerFault(shard=1, attempt=0, kind="raise"),
            WorkerFault(shard=2, attempt=1, kind="stall", stall_seconds=3.5),
        ),
        checkpoint=(CheckpointFault(shard=0, kind="corrupt"),),
    )

    #: Same plan, with a checkpoint fault narrowed to one retry attempt.
    ATTEMPT_KEYED_PLAN = FaultPlan(
        checkpoint=(
            CheckpointFault(shard=0, kind="corrupt"),
            CheckpointFault(shard=1, kind="truncate", attempt=2),
        ),
    )

    def test_json_round_trip(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN

    def test_attempt_keyed_checkpoint_fault_round_trips(self):
        plan = self.ATTEMPT_KEYED_PLAN
        assert FaultPlan.from_json(plan.to_json()) == plan
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.checkpoint[0].attempt is None
        assert restored.checkpoint[1].attempt == 2

    def test_attempt_key_is_omitted_from_json_when_unset(self):
        """The legacy JSON shape (no ``attempt`` key) stays stable: only
        faults that carry an attempt serialise one."""
        entries = self.ATTEMPT_KEYED_PLAN.to_dict()["checkpoint"]
        assert "attempt" not in entries[0]
        assert entries[1]["attempt"] == 2

    def test_env_arming_with_inline_json(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, self.PLAN.to_json())
        assert load_fault_plan() == self.PLAN

    def test_env_arming_with_a_path(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self.PLAN.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert load_fault_plan() == self.PLAN

    def test_no_plan_armed_means_none(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert load_fault_plan() is None

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",                                     # not an object
            '{"worker": [{"shard": 0}]}',             # missing kind
            '{"worker": [{"shard": 0, "kind": "explode"}]}',  # unknown kind
            '{"checkpoint": [{"shard": 0, "kind": "raise"}]}',  # wrong family
            '{"surprise": []}',                       # unknown key
            "{not json",                              # malformed
        ],
    )
    def test_malformed_plans_are_rejected(self, payload):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(payload)


class TestKillAndResumeSubprocess:
    """The CLI under faults: SIGKILL the run mid-campaign, resume, diff; stall
    a worker past the shard timeout and exit anyway."""

    def _campaign(self, tmp_path, *extra, check_signal=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro", "campaign",
            "--size", str(POPULATION_SIZE), "--seed", "2022",
            "--stream", "--shard-size", str(SHARD_SIZE),
            *extra,
        ]
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=300,
            env=env, cwd=str(tmp_path),
        )
        if check_signal is None:
            assert completed.returncode == 0, completed.stderr
        else:
            assert completed.returncode == check_signal, completed.stderr
        return completed

    def test_sigkilled_run_resumes_byte_identically(self, tmp_path):
        plan = FaultPlan(checkpoint=(CheckpointFault(shard=2, kind="kill-run"),))
        (tmp_path / "plan.json").write_text(plan.to_json(), encoding="utf-8")

        self._campaign(tmp_path, "--output", "clean.txt")
        self._campaign(
            tmp_path,
            "--checkpoint-dir", "ckpt", "--fault-plan", "plan.json",
            "--output", "interrupted.txt",
            check_signal=-9,  # SIGKILL, exactly as a crash/OOM-kill would land
        )
        # The kill left a partial directory (shards 0..2 checkpointed) and no
        # torn report.
        checkpoints = [
            name for name in os.listdir(tmp_path / "ckpt") if name.endswith(".ckpt")
        ]
        assert len(checkpoints) == 3
        assert not (tmp_path / "interrupted.txt").exists()

        self._campaign(
            tmp_path,
            "--checkpoint-dir", "ckpt", "--resume", "--output", "resumed.txt",
        )
        clean = (tmp_path / "clean.txt").read_bytes()
        resumed = (tmp_path / "resumed.txt").read_bytes()
        assert resumed == clean

    def test_stalled_worker_does_not_keep_the_run_alive(self, tmp_path):
        plan = FaultPlan(
            worker=(WorkerFault(shard=0, attempt=0, kind="stall", stall_seconds=60.0),)
        )
        (tmp_path / "plan.json").write_text(plan.to_json(), encoding="utf-8")
        start = time.monotonic()
        self._campaign(
            tmp_path,
            "--workers", "2", "--shard-timeout", "1", "--fault-plan", "plan.json",
            "--output", "stalled.txt",
        )
        # The retry lands in about a second; the stall would end after 60.
        assert time.monotonic() - start < 30
        assert (tmp_path / "stalled.txt").exists()


class TestCheckpointOnlyRun:
    def test_checkpointed_run_is_byte_identical_and_persists_all_shards(
        self, config, reference, tmp_path
    ):
        results = _run(config, checkpoint_dir=str(tmp_path))
        assert build_report(results).text == reference
        store = CheckpointStore(str(tmp_path))
        for index in range(4):
            key = CheckpointKey.for_campaign(config, SHARD_SIZE, index)
            summary = store.load(key)
            assert summary is not None and summary.index == index
