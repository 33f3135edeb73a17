"""Cross-scenario shard reuse differentials: one generation, N campaigns, zero drift.

The grid sweep path (:func:`repro.scanners.orchestrator.run_grid_campaign`)
materialises each shard's baseline skeletons once and replays every scenario's
pure transform over them.  Everything here pins the contract that makes the
amortisation safe to use: per-scenario reports and exported CSVs are
byte-identical to N fully independent campaigns, across worker counts, shard
sizes and scan backends; a SIGKILLed grid run resumes at ``(shard, scenario)``
granularity to the same bytes; ``baseline-2022`` inside a grid still matches
the golden artefact digests; and the compression-adoption table is deterministic
and monotone.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.export import export_evaluation
from repro.analysis.report import build_report
from repro.scanners import MeasurementCampaign, run_grid_campaign, streaming
from repro.scanners.checkpoint import CheckpointError
from repro.scanners.faults import CheckpointFault, FaultPlan
from repro.scanners.zmap import ZmapScanner
from repro.scenarios import ScenarioError, ScenarioSpec, load_scenario
from repro.scenarios.compare import GridComparison, compare_grid
from repro.scenarios.grid import (
    BUILTIN_GRIDS,
    COMPRESSION_ADOPTION_GRID,
    ScenarioGrid,
    load_grid,
)
from repro.webpki.population import PopulationConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "report_digests.json")

POPULATION_SIZE = 480
SHARD_SIZE = 120  # -> shards 0..3
SPOOFED = 12

GRID_MEMBERS = ("baseline-2022", "universal-compression", "trimmed-chains")


@pytest.fixture(scope="module")
def config():
    return PopulationConfig(size=POPULATION_SIZE, seed=2022)


@pytest.fixture(scope="module")
def grid():
    return ScenarioGrid(
        name="test-grid",
        scenarios=tuple(load_scenario(name) for name in GRID_MEMBERS),
    )


@pytest.fixture(scope="module")
def independent(config, grid):
    """N fully independent streamed campaigns: the bytes the grid must hit."""
    results = {}
    for scenario in grid:
        campaign = MeasurementCampaign(
            population_config=scenario.population_config(base=config),
            stream=True,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
        )
        results[scenario.name] = campaign.run()
    return results


def _export_digests(results, directory) -> dict:
    export_evaluation(results, str(directory))
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestGridMatchesIndependentCampaigns:
    @pytest.mark.parametrize(
        "workers,shard_size,backend",
        [
            (1, SHARD_SIZE, "object"),
            (2, SHARD_SIZE, "columnar"),
            (1, POPULATION_SIZE, "columnar"),  # single shard
            (2, 160, "object"),  # shard size that matches no reference run
        ],
    )
    def test_reports_byte_identical(
        self, config, grid, independent, workers, shard_size, backend
    ):
        results = run_grid_campaign(
            grid,
            config=config,
            workers=workers,
            shard_size=shard_size,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend=backend,
        )
        assert set(results) == set(GRID_MEMBERS)
        for name in GRID_MEMBERS:
            assert (
                build_report(results[name]).text
                == build_report(independent[name]).text
            ), f"grid report for {name} drifted from the independent campaign"

    def test_exported_csvs_byte_identical(self, config, grid, independent, tmp_path):
        results = run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
        )
        for name in GRID_MEMBERS:
            grid_digests = _export_digests(results[name], tmp_path / f"grid-{name}")
            solo_digests = _export_digests(independent[name], tmp_path / f"solo-{name}")
            assert grid_digests == solo_digests

    def test_grid_rejects_scenario_carrying_config(self, grid):
        carrying = load_scenario("trimmed-chains").population_config(
            size=POPULATION_SIZE, seed=2022
        )
        with pytest.raises(ValueError, match="scenario-free base config"):
            run_grid_campaign(grid, config=carrying)


class TestShardVisitContract:
    """Single runs and grids share one shard visit; pin who calls what.

    Counting wrappers replace the two worker entries by module global (the
    way per-entry tracing binds them) and count every
    ``ScenarioSpec.transform_skeletons`` call, in process (``workers=1``).
    """

    SHARDS = POPULATION_SIZE // SHARD_SIZE

    @pytest.fixture
    def calls(self, monkeypatch):
        transforms, entries = [], []
        transform = ScenarioSpec.transform_skeletons

        def counting_transform(spec, skeletons):
            transforms.append(spec.name)
            return transform(spec, skeletons)

        monkeypatch.setattr(ScenarioSpec, "transform_skeletons", counting_transform)
        for name in ("_scan_and_summarize", "_scan_and_summarize_grid"):
            entry = getattr(streaming, name)

            def counting_entry(payload, entry=entry, name=name):
                entries.append((name, payload[0].index))
                return entry(payload)

            monkeypatch.setattr(streaming, name, counting_entry)
        return transforms, entries

    @pytest.mark.parametrize("scenario", [None, "baseline-2022"])
    def test_single_runs_make_no_transform_call(self, config, calls, scenario):
        transforms, entries = calls
        if scenario is not None:
            config = load_scenario(scenario).population_config(base=config)
        MeasurementCampaign(
            population_config=config,
            stream=True,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
        ).run()
        assert transforms == []
        assert sorted(entries) == [
            ("_scan_and_summarize", index) for index in range(self.SHARDS)
        ]

    def test_grid_transforms_each_non_identity_member_once_per_shard(
        self, config, grid, calls
    ):
        transforms, entries = calls
        run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
        )
        non_identity = [scenario.name for scenario in grid if not scenario.is_identity]
        assert "baseline-2022" not in non_identity and len(non_identity) == 2
        assert sorted(transforms) == sorted(non_identity * self.SHARDS)
        assert sorted(entries) == [
            ("_scan_and_summarize_grid", index) for index in range(self.SHARDS)
        ]

    def test_grid_probes_the_meta_pop_once(self, config, grid, monkeypatch):
        # The Meta PoP probes (before and after the patch) take no scenario
        # input: a grid runs them once, not once per member.
        probed = []
        probe_prefix = ZmapScanner.probe_prefix

        def counting_probe(scanner, prefix):
            probed.append(prefix)
            return probe_prefix(scanner, prefix)

        monkeypatch.setattr(ZmapScanner, "probe_prefix", counting_probe)
        run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            scan_backend="columnar",
        )
        assert len(grid) == 3
        assert len(probed) == 2


class TestGridCheckpointResume:
    def test_partial_grid_resumes_to_identical_reports(
        self, config, grid, independent, tmp_path
    ):
        first = run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            checkpoint_dir=str(tmp_path),
        )
        checkpoints = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".ckpt")
        )
        assert len(checkpoints) == 4 * len(GRID_MEMBERS)
        # Lose a few (shard, scenario) pairs; the resume must re-scan exactly
        # the missing members and land on the same bytes.
        for name in checkpoints[:3]:
            os.unlink(tmp_path / name)
        lines = []
        resumed = run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            checkpoint_dir=str(tmp_path),
            resume=True,
            progress=lines.append,
        )
        assert any("resumed 9/12" in line for line in lines)
        for name in GRID_MEMBERS:
            assert build_report(resumed[name]).text == build_report(first[name]).text
            assert build_report(first[name]).text == build_report(independent[name]).text

    def test_resume_survives_grid_reorder_and_rename(self, config, grid, tmp_path):
        run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            checkpoint_dir=str(tmp_path),
        )
        reordered = ScenarioGrid(
            name="same-grid-other-name",
            scenarios=tuple(reversed(grid.scenarios)),
        )
        lines = []
        run_grid_campaign(
            reordered,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            checkpoint_dir=str(tmp_path),
            resume=True,
            progress=lines.append,
        )
        assert any("resumed 12/12" in line for line in lines)

    def test_different_grid_is_rejected(self, config, grid, tmp_path):
        run_grid_campaign(
            grid,
            config=config,
            shard_size=SHARD_SIZE,
            spoofed_targets_per_provider=SPOOFED,
            checkpoint_dir=str(tmp_path),
        )
        other = ScenarioGrid(
            name="other", scenarios=(load_scenario("large-initials"),)
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            run_grid_campaign(
                other,
                config=config,
                shard_size=SHARD_SIZE,
                spoofed_targets_per_provider=SPOOFED,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )


class TestGridKillAndResumeSubprocess:
    """SIGKILL a grid sweep mid-campaign, resume, cmp every member report."""

    def _campaign(self, tmp_path, *extra, check_signal=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro", "campaign",
            "--size", str(POPULATION_SIZE), "--seed", "2022",
            "--shard-size", str(SHARD_SIZE),
            "--scenario-grid", "baseline-2022,trimmed-chains",
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

    def test_sigkilled_grid_resumes_byte_identically(self, tmp_path):
        plan = FaultPlan(checkpoint=(CheckpointFault(shard=2, kind="kill-run"),))
        (tmp_path / "plan.json").write_text(plan.to_json(), encoding="utf-8")

        self._campaign(tmp_path, "--output", "clean")
        self._campaign(
            tmp_path,
            "--checkpoint-dir", "ckpt", "--fault-plan", "plan.json",
            "--output", "interrupted",
            check_signal=-9,  # SIGKILL, exactly as a crash/OOM-kill would land
        )
        # The kill fired on the first checkpoint save of shard 2: shards 0-1
        # are fully persisted (2 members each), shard 2 has one member, and no
        # torn report directory exists.
        checkpoints = [
            name for name in os.listdir(tmp_path / "ckpt") if name.endswith(".ckpt")
        ]
        assert len(checkpoints) == 5
        assert not (tmp_path / "interrupted").exists()

        self._campaign(tmp_path, "--checkpoint-dir", "ckpt", "--resume", "--output", "resumed")
        for member in ("baseline-2022", "trimmed-chains"):
            clean = (tmp_path / "clean" / f"{member}.report.txt").read_bytes()
            resumed = (tmp_path / "resumed" / f"{member}.report.txt").read_bytes()
            assert resumed == clean


class TestBaselineInGridMatchesGolden:
    def test_baseline_member_reproduces_golden_artefacts(self, tmp_path):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        params = golden["campaign"]
        grid = ScenarioGrid(
            name="golden-check", scenarios=(load_scenario("baseline-2022"),)
        )
        results = run_grid_campaign(
            grid,
            config=PopulationConfig(size=params["size"], seed=params["seed"]),
            spoofed_targets_per_provider=params["spoofed_targets_per_provider"],
        )
        digests = _export_digests(results["baseline-2022"], tmp_path)
        # The golden campaign also ran the Initial-size sweep; grid sweeps are
        # single-size by design, so sweep-derived artefacts (figure03 and the
        # sweep section of evaluation.txt) are out of scope here.  Every
        # other artefact must match the golden digest byte for byte.
        comparable = {
            name: digest
            for name, digest in digests.items()
            if name in golden["digests"] and name != "evaluation.txt"
        }
        assert len(comparable) >= 20
        drifted = {
            name
            for name, digest in comparable.items()
            if golden["digests"][name] != digest
        }
        assert not drifted, f"grid baseline drifted from golden artefacts: {sorted(drifted)}"


class TestAdoptionCurve:
    @pytest.fixture(scope="class")
    def curve(self):
        return compare_grid(
            "compression-adoption",
            size=600,
            seed=2022,
            shard_size=200,
        )

    def test_curve_is_monotone_in_adoption(self, curve):
        fractions = [
            outcome.scenario.compression_adoption for outcome in curve.outcomes
        ]
        assert fractions == sorted(fractions) and len(fractions) == 11
        exceeding = [outcome.exceeding_share for outcome in curve.outcomes]
        one_rtt = [outcome.one_rtt_share for outcome in curve.outcomes]
        assert all(a >= b for a, b in zip(exceeding, exceeding[1:]))
        assert all(a <= b for a, b in zip(one_rtt, one_rtt[1:]))

    def test_full_adoption_matches_universal_compression(self, curve):
        import dataclasses

        from repro.scenarios.compare import ScenarioOutcome, outcome_from_results

        universal_spec = load_scenario("universal-compression")
        scan = streaming.run_streaming_scan(
            universal_spec.population_config(size=600, seed=2022), shard_size=200
        )
        universal = outcome_from_results(universal_spec, scan)
        full = curve.outcomes[-1]
        assert full.scenario.compression_adoption == 1.0
        numeric = [
            field.name
            for field in dataclasses.fields(ScenarioOutcome)
            if field.name != "scenario"
        ]
        assert len(numeric) == 10
        for name in numeric:
            assert getattr(full, name) == getattr(universal, name), name

    def test_rendered_table_is_deterministic_and_worker_invariant(self, curve):
        again = compare_grid(
            COMPRESSION_ADOPTION_GRID,
            size=600,
            seed=2022,
            workers=2,
            shard_size=150,
            scan_backend="columnar",
        )
        assert again.render_text() == curve.render_text()
        text = curve.render_text()
        assert "Scenario grid 'compression-adoption'" in text
        assert "deltas vs compression-adoption-000" in text
        assert "100%" in text and "0%" in text


class TestGridSpecification:
    def test_round_trips_through_json(self, grid):
        clone = ScenarioGrid.from_json(json.dumps(grid.to_dict()))
        assert clone == grid
        assert clone.fingerprint() == grid.fingerprint()

    def test_fingerprint_ignores_order_and_name(self, grid):
        shuffled = ScenarioGrid(
            name="renamed", scenarios=tuple(reversed(grid.scenarios))
        )
        assert shuffled.fingerprint() == grid.fingerprint()
        other = ScenarioGrid(name=grid.name, scenarios=grid.scenarios[:2])
        assert other.fingerprint() != grid.fingerprint()

    def test_axis_products_expand_over_base(self):
        payload = {
            "name": "adoption-x-trim",
            "base": "baseline-2022",
            "axes": {
                "compression_adoption": [0.0, 0.5, 1.0],
                "trim_chain_depth": [None, 2],
            },
        }
        expanded = ScenarioGrid.from_dict(payload)
        assert len(expanded) == 6
        names = expanded.member_names
        assert "baseline-2022+compression_adoption=0.5+trim_chain_depth=2" in names
        fractions = {spec.compression_adoption for spec in expanded}
        assert fractions == {0.0, 0.5, 1.0}

    def test_builtin_grids_resolve_by_name(self):
        for name in BUILTIN_GRIDS:
            loaded = load_grid(name)
            assert loaded.name == name and len(loaded) >= 2
        comma = load_grid("baseline-2022,trimmed-chains")
        assert comma.member_names == ("baseline-2022", "trimmed-chains")

    def test_rejects_malformed_grids(self, tmp_path):
        with pytest.raises(ScenarioError, match="has no scenarios"):
            ScenarioGrid(name="empty", scenarios=())
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioGrid(
                name="dupes",
                scenarios=(load_scenario("baseline-2022"),) * 2,
            )
        with pytest.raises(ScenarioError, match="duplicate"):
            # Cosmetic differences (description) do not make two members
            # distinct: the fingerprint ignores them.
            ScenarioGrid(
                name="same-knobs",
                scenarios=(
                    ScenarioSpec(name="a", trim_chain_depth=2),
                    ScenarioSpec(name="a", trim_chain_depth=2, description="twin"),
                ),
            )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_grid(str(bad))
        with pytest.raises(ScenarioError, match="unknown scenario grid"):
            load_grid("no-such-grid")

    def test_adoption_knob_validation(self):
        with pytest.raises(ScenarioError, match="compression_adoption"):
            ScenarioSpec(name="bad", compression_adoption=1.5)
        with pytest.raises(ScenarioError, match="compression_adoption"):
            ScenarioSpec(name="bad", compression_adoption=True)
        spec = ScenarioSpec(name="ok", compression_adoption=0)
        assert spec.compression_adoption == 0.0
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.fingerprint() == spec.fingerprint()

    def test_adopter_set_is_monotone(self):
        domains = [f"domain-{i}.example" for i in range(500)]
        previous = set()
        for percent in range(0, 101, 10):
            spec = ScenarioSpec(
                name=f"p{percent}", compression_adoption=percent / 100
            )
            adopters = {d for d in domains if spec.adopts_compression(d)}
            assert previous <= adopters
            previous = adopters
        assert previous == set(domains)


class TestDeltaCells:
    """A delta is taken between displayed values: "(=)" means the two cells
    read the same, and a printed delta is the difference the reader sees."""

    def test_factor_rounding_apart_is_not_equal(self):
        # 3.4743 shows as 3.47x, 3.4780 as 3.48x: no longer "(=)".
        assert GridComparison._cell(3.4743, 3.4780, "factor") == "  3.47x (-0.01)"

    def test_factor_reading_the_same_is_equal(self):
        # Unrounded delta 0.0098, but both show 3.45x.
        assert GridComparison._cell(3.4451, 3.4549, "factor") == "  3.45x (=)"

    def test_share_rounding_apart_is_not_equal(self):
        assert GridComparison._cell(0.12344, 0.12346, "share") == " 12.34% (-0.01pp)"

    def test_share_reading_the_same_is_equal(self):
        # Unrounded delta -0.008pp, but both show 12.35%.
        assert GridComparison._cell(0.12346, 0.12354, "share") == " 12.35% (=)"

    def test_reference_row_and_counts_unchanged(self):
        assert GridComparison._cell(3.4743, None, "factor") == "  3.47x"
        assert GridComparison._cell(1362.0, 1252.0, "bytes") == "1362 B (+110)"
        assert GridComparison._cell(7.0, 7.0, "count") == "7"
