"""Backend-differential tests: the columnar scan kernel vs the object pipeline.

The contract under test (docs/ARCHITECTURE.md, "Columnar scan core"): the
fused arithmetic backend of :mod:`repro.scanners.columnar` produces
byte-identical reports, per-figure CSVs, shard summaries and even flight-plan
cache counters to the reference object pipeline — for any seed, worker count,
shard size and built-in scenario, against the serial object reference,
across a checkpoint/resume seam written by the *other* backend, and against
the SHA-256 golden digests of ``tests/golden/report_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.analysis.export import export_evaluation
from repro.analysis.report import build_report
from repro.scanners import MeasurementCampaign
from repro.scanners.columnar import (
    SCAN_BACKENDS,
    SCAN_BACKEND_ENV,
    resolve_scan_backend,
    summarize_shard_columnar,
)
from repro.scanners.shard_columns import lower_deployments
from repro.scanners.sharding import ShardTask, scan_shard
from repro.scanners.streaming import (
    ReducedCampaignResults,
    ReductionSpec,
    run_streaming_scan,
    summarize_shard,
)
from repro.scenarios import BUILTIN_SCENARIOS
from repro.webpki.population import PopulationConfig, generate_population

#: Spans several shards at the shard sizes below while keeping the matrix fast.
POPULATION_SIZE = 900

CAMPAIGN_KWARGS = dict(
    run_sweep=True,
    sweep_sample_size=60,
    spoofed_targets_per_provider=12,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "report_digests.json")


def _streamed(config, backend, **kwargs):
    return MeasurementCampaign(
        population_config=config,
        stream=True,
        scan_backend=backend,
        **CAMPAIGN_KWARGS,
        **kwargs,
    ).run()


class TestColumnarMatchesObject:
    @pytest.mark.parametrize("seed", [2022, 7])
    def test_streamed_reports_and_state_identical(self, seed):
        config = PopulationConfig(size=POPULATION_SIZE, seed=seed)
        reference = _streamed(config, "object", shard_size=256)
        columnar = _streamed(config, "columnar", shard_size=256)
        assert isinstance(columnar, ReducedCampaignResults)
        assert build_report(reference).text == build_report(columnar).text
        # Full reduced-state equality: funnel, every CDF accumulator, compact
        # figure rows, comparison counters AND flight-cache counters.
        assert reference.scan == columnar.scan
        assert reference.flight_cache == columnar.flight_cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_count_does_not_change_columnar_report(self, workers):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _streamed(config, "object", workers=1, shard_size=256)
        columnar = _streamed(config, "columnar", workers=workers, shard_size=256)
        assert build_report(reference).text == build_report(columnar).text
        assert reference.flight_cache == columnar.flight_cache

    @pytest.mark.parametrize("shard_size", [128, 512])
    def test_shard_size_does_not_change_columnar_report(self, shard_size):
        config = PopulationConfig(size=POPULATION_SIZE, seed=5)
        reference = _streamed(config, "object", shard_size=shard_size)
        columnar = _streamed(config, "columnar", shard_size=shard_size)
        assert build_report(reference).text == build_report(columnar).text
        assert reference.scan == columnar.scan

    def test_streamed_columnar_matches_serial_object(self):
        """The columnar kernel reports identically to the serial object
        reference (materialised population, stage 5 over the full fabric)."""
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        serial_object = MeasurementCampaign(
            population=generate_population(config), **CAMPAIGN_KWARGS
        ).run()
        streamed_columnar = _streamed(config, "columnar")
        assert isinstance(streamed_columnar, ReducedCampaignResults)
        assert build_report(serial_object).text == build_report(streamed_columnar).text

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_builtin_scenario_is_backend_invariant(self, name):
        scenario = BUILTIN_SCENARIOS[name]
        config = PopulationConfig(size=600, seed=11)
        reference = MeasurementCampaign(
            population_config=config,
            stream=True,
            scenario=scenario,
            shard_size=200,
            **CAMPAIGN_KWARGS,
        ).run()
        columnar = MeasurementCampaign(
            population_config=config,
            stream=True,
            scenario=scenario,
            shard_size=200,
            scan_backend="columnar",
            **CAMPAIGN_KWARGS,
        ).run()
        assert reference.scan == columnar.scan
        assert build_report(reference).text == build_report(columnar).text

    def test_csv_exports_byte_identical(self, tmp_path):
        config = PopulationConfig(size=POPULATION_SIZE, seed=3)
        reference = _streamed(config, "object", shard_size=256)
        columnar = _streamed(config, "columnar", shard_size=256)
        object_dir = tmp_path / "object"
        columnar_dir = tmp_path / "columnar"
        export_evaluation(reference, str(object_dir))
        export_evaluation(columnar, str(columnar_dir))
        names = sorted(os.listdir(object_dir))
        assert names == sorted(os.listdir(columnar_dir))
        for name in names:
            assert (object_dir / name).read_bytes() == (
                columnar_dir / name
            ).read_bytes(), name

    def test_shard_summaries_equal_per_shard(self):
        """The unit contract: kernel summary == object summary, shard by shard."""
        config = PopulationConfig(size=700, seed=13)
        spec = ReductionSpec(spoof_limit_per_provider=12)
        for start, stop, index in ((0, 250, 0), (250, 500, 1), (500, 700, 2)):
            task = ShardTask(
                index=index,
                population_config=config,
                start=start,
                stop=stop,
                run_sweep=True,
                sweep_local_selection=(index, 3),
            )
            deployments = tuple(task.resolve_deployments())
            expected = summarize_shard(
                task, deployments, scan_shard(task, deployments=deployments), spec
            )
            columns = lower_deployments(deployments)
            assert summarize_shard_columnar(task, columns, spec) == expected


class TestCrossBackendResume:
    @pytest.mark.parametrize(
        "write_backend,resume_backend",
        [("object", "columnar"), ("columnar", "object")],
    )
    def test_resume_from_other_backends_checkpoints(
        self, tmp_path, write_backend, resume_backend
    ):
        """Checkpoints are backend-agnostic: summaries written by one backend
        finish byte-identically under the other."""
        config = PopulationConfig(size=800, seed=17)
        ckpt = str(tmp_path / "ckpt")
        full = run_streaming_scan(
            config, shard_size=200, checkpoint_dir=ckpt, scan_backend=write_backend
        )
        # Drop two shards so the resume genuinely re-scans under the other
        # backend rather than folding checkpoints only.
        removed = sorted(
            name for name in os.listdir(ckpt) if name.endswith(".ckpt")
        )[:2]
        assert len(removed) == 2
        for name in removed:
            os.remove(os.path.join(ckpt, name))
        resumed = run_streaming_scan(
            config,
            shard_size=200,
            checkpoint_dir=ckpt,
            resume=True,
            scan_backend=resume_backend,
        )
        assert resumed == full


class TestColumnarGoldenDigests:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_columnar_reproduces_golden_digests(self, golden, workers):
        params = golden["campaign"]
        results = MeasurementCampaign(
            population_config=PopulationConfig(size=params["size"], seed=params["seed"]),
            stream=True,
            workers=workers,
            run_sweep=True,
            sweep_sample_size=params["sweep_sample_size"],
            spoofed_targets_per_provider=params["spoofed_targets_per_provider"],
            scan_backend="columnar",
        ).run()
        with tempfile.TemporaryDirectory() as directory:
            export_evaluation(results, directory)
            produced = {
                name: hashlib.sha256(
                    open(os.path.join(directory, name), "rb").read()
                ).hexdigest()
                for name in sorted(os.listdir(directory))
            }
        assert produced == golden["digests"]


class TestBackendSelection:
    def test_registry_and_default(self, monkeypatch):
        monkeypatch.delenv(SCAN_BACKEND_ENV, raising=False)
        assert SCAN_BACKENDS == ("object", "columnar")
        assert resolve_scan_backend() == "object"
        assert resolve_scan_backend("columnar") == "columnar"

    def test_invalid_explicit_backend_is_rejected(self):
        with pytest.raises(ValueError, match="columnar"):
            resolve_scan_backend("numpy")

    def test_invalid_env_backend_is_rejected(self, monkeypatch):
        monkeypatch.setenv(SCAN_BACKEND_ENV, "bogus")
        with pytest.raises(ValueError, match=SCAN_BACKEND_ENV):
            resolve_scan_backend()

    def test_empty_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(SCAN_BACKEND_ENV, "")
        assert resolve_scan_backend() == "object"

    def test_env_knob_drives_streamed_runs(self, monkeypatch):
        config = PopulationConfig(size=400, seed=2)
        monkeypatch.delenv(SCAN_BACKEND_ENV, raising=False)
        reference = run_streaming_scan(config, shard_size=200)
        monkeypatch.setenv(SCAN_BACKEND_ENV, "columnar")
        via_env = run_streaming_scan(config, shard_size=200)
        assert via_env == reference

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(SCAN_BACKEND_ENV, "bogus")
        assert resolve_scan_backend("object") == "object"

    def test_campaign_rejects_unknown_backend_eagerly(self):
        with pytest.raises(ValueError, match="choose from"):
            MeasurementCampaign(
                population_config=PopulationConfig(size=100, seed=1),
                stream=True,
                scan_backend="vectorised",
            )

    def test_shard_task_defaults_to_object(self):
        assert ShardTask(index=0).scan_backend == "object"
