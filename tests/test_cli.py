"""Tests for the command-line interface."""

import errno
import os
import subprocess
import sys

import pytest

try:
    import fcntl
except ImportError:  # pragma: no cover - not a POSIX platform
    fcntl = None

import repro
from repro.__main__ import _observed
from repro.cli import build_parser, main
from repro.scanners import MeasurementCampaign
from repro.scanners import checkpoint as checkpoint_module
from repro.scenarios import BUILTIN_SCENARIOS

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.size == 3000 and args.seed == 2022 and not args.sweep

    def test_predict_arguments(self):
        args = build_parser().parse_args(
            ["predict", "--chain", "Cloudflare ECC CA-3", "--initial-size", "1250"]
        )
        assert args.chain == "Cloudflare ECC CA-3"
        assert args.initial_size == 1250


class TestCommands:
    def test_profiles_lists_chains_and_behaviours(self, capsys):
        assert main(["profiles"]) == 0
        output = capsys.readouterr().out
        assert "Cloudflare ECC CA-3" in output
        assert "cloudflare-like" in output
        assert "mvfst-like" in output

    def test_predict_known_chain(self, capsys):
        assert main(["predict", "--chain", "Let's Encrypt E1 (short)"]) == 0
        output = capsys.readouterr().out
        assert "predicted class:     1-RTT" in output

    def test_predict_large_chain_with_and_without_compression(self, capsys):
        assert main(["predict", "--chain", "Amazon RSA 2048 M02 (long)"]) == 0
        plain = capsys.readouterr().out
        assert "Multi-RTT" in plain
        assert main(["predict", "--chain", "Amazon RSA 2048 M02 (long)", "--compression", "brotli"]) == 0
        compressed = capsys.readouterr().out
        assert "1-RTT" in compressed

    def test_predict_unknown_chain_fails(self, capsys):
        assert main(["predict", "--chain", "No Such CA"]) == 2
        assert "unknown chain profile" in capsys.readouterr().err

    def test_campaign_stream_flag_parses(self):
        args = build_parser().parse_args(["campaign", "--stream", "--workers", "2"])
        assert args.stream and args.workers == 2
        assert not build_parser().parse_args(["campaign"]).stream

    def test_streamed_campaign_writes_report(self, tmp_path, capsys):
        output_file = tmp_path / "streamed.txt"
        assert main(
            ["campaign", "--size", "300", "--stream", "--output", str(output_file)]
        ) == 0
        content = output_file.read_text()
        assert "figure06" in content
        assert "Table 2" in content

    def test_predict_initial_size_moves_the_class(self, capsys):
        chain = "Let's Encrypt R3 + root X1"
        assert main(["predict", "--chain", chain, "--initial-size", "1200"]) == 0
        small = capsys.readouterr().out
        assert main(["predict", "--chain", chain, "--initial-size", "1472"]) == 0
        large = capsys.readouterr().out
        assert "smallest 1-RTT Initial" in small
        assert small != large

    def test_profiles_lists_every_builtin_behaviour(self, capsys):
        assert main(["profiles"]) == 0
        output = capsys.readouterr().out
        for name in ("rfc-compliant", "google-like", "retry-always", "mvfst-patched"):
            assert name in output

    def test_campaign_writes_report(self, tmp_path, capsys):
        output_file = tmp_path / "report.txt"
        export_dir = tmp_path / "export"
        assert main(
            ["campaign", "--size", "300", "--output", str(output_file), "--export-dir", str(export_dir)]
        ) == 0
        assert output_file.exists()
        content = output_file.read_text()
        assert "figure06" in content
        assert "Table 2" in content
        assert (export_dir / "evaluation.txt").exists()
        assert (export_dir / "figure06_quic.csv").exists()

    def test_workers_flag_rides_the_streamed_pipeline(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial.txt"
        streamed = tmp_path / "streamed.txt"
        base = ["campaign", "--size", "600", "--sweep"]
        assert main([*base, "--output", str(serial)]) == 0
        calls = []
        original = MeasurementCampaign._run_streaming

        def spy(campaign):
            calls.append(campaign.workers)
            return original(campaign)

        monkeypatch.setattr(MeasurementCampaign, "_run_streaming", spy)
        assert main([*base, "--workers", "2", "--output", str(streamed)]) == 0
        assert calls == [2]
        assert streamed.read_bytes() == serial.read_bytes()


class TestScenarioCommands:
    def test_scenarios_lists_builtins_with_descriptions(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name, spec in BUILTIN_SCENARIOS.items():
            assert name in output
            assert spec.description.split("?")[0] in output

    def test_scenarios_names_prints_bare_names(self, capsys):
        assert main(["scenarios", "--names"]) == 0
        output = capsys.readouterr().out
        assert output.split() == list(BUILTIN_SCENARIOS)

    def test_campaign_under_a_builtin_scenario_stamps_the_report(self, tmp_path, capsys):
        output_file = tmp_path / "what-if.txt"
        assert main(
            ["campaign", "--size", "250", "--stream",
             "--scenario", "universal-compression", "--output", str(output_file)]
        ) == 0
        content = output_file.read_text()
        assert "scenario: universal-compression" in content
        assert "figure06" in content

    def test_campaign_under_a_scenario_file(self, tmp_path, capsys):
        scenario_file = tmp_path / "custom.json"
        scenario_file.write_text(
            BUILTIN_SCENARIOS["trimmed-chains"].to_json(), encoding="utf-8"
        )
        output_file = tmp_path / "custom.txt"
        assert main(
            ["campaign", "--size", "250", "--stream",
             "--scenario", str(scenario_file), "--output", str(output_file)]
        ) == 0
        assert "scenario: trimmed-chains" in output_file.read_text()

    def test_campaign_with_unknown_scenario_fails_readably(self, capsys):
        assert main(["campaign", "--size", "250", "--scenario", "no-such-world"]) == 2
        error = capsys.readouterr().err
        assert "unknown scenario 'no-such-world'" in error
        assert "baseline-2022" in error  # the message lists the built-ins

    def test_campaign_with_malformed_scenario_file_fails_readably(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["campaign", "--size", "250", "--scenario", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_compare_prints_the_delta_table(self, capsys):
        assert main(
            ["compare", "--scenarios", "baseline-2022,trimmed-chains", "--size", "250"]
        ) == 0
        output = capsys.readouterr().out
        assert "Scenario grid 'baseline-2022,trimmed-chains'" in output
        assert "trimmed-chains" in output
        assert "1-RTT share" in output

    def test_compare_scenarios_accepts_a_single_scenario_file(self, tmp_path, capsys):
        # Each --scenarios entry is one scenario, so a lone ScenarioSpec file
        # is a one-member grid rather than a (malformed) grid file.
        scenario_file = tmp_path / "my.json"
        scenario_file.write_text(
            BUILTIN_SCENARIOS["trimmed-chains"].to_json(), encoding="utf-8"
        )
        assert main(
            ["compare", "--scenarios", str(scenario_file), "--size", "250"]
        ) == 0
        assert "deltas vs trimmed-chains" in capsys.readouterr().out

    def test_compare_with_unknown_scenario_fails_readably(self, capsys):
        assert main(["compare", "--scenarios", "nope", "--size", "250"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestGridCommands:
    def test_scenarios_grid_dry_runs_the_expansion(self, capsys):
        assert main(["scenarios", "--grid", "compression-adoption"]) == 0
        output = capsys.readouterr().out
        assert "Scenario grid 'compression-adoption' — 11 members" in output
        assert "compression-adoption-000" in output
        assert "compression-adoption-100" in output
        # Every member line carries its fingerprint prefix (16 hex chars).
        member_lines = [
            line for line in output.splitlines()
            if line.strip().startswith("compression-adoption-")
        ]
        assert len(member_lines) == 11
        for line in member_lines:
            fingerprint = line.split()[-1]
            assert len(fingerprint) == 16
            int(fingerprint, 16)

    def test_scenarios_grid_with_malformed_file_fails_readably(self, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        bad.write_text("[1, 2", encoding="utf-8")
        assert main(["scenarios", "--grid", str(bad)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error:") and "not valid JSON" in error

    def test_campaign_scenario_grid_writes_one_report_per_member(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(
            ["campaign", "--size", "250",
             "--scenario-grid", "baseline-2022,trimmed-chains",
             "--output", str(out_dir)]
        ) == 0
        assert sorted(os.listdir(out_dir)) == [
            "baseline-2022.report.txt", "trimmed-chains.report.txt",
        ]
        trimmed = (out_dir / "trimmed-chains.report.txt").read_text()
        assert "scenario: trimmed-chains" in trimmed

    def test_campaign_scenario_grid_excludes_scenario_and_sweep(self, capsys):
        assert main(
            ["campaign", "--size", "250", "--scenario-grid", "what-ifs",
             "--scenario", "baseline-2022"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert main(
            ["campaign", "--size", "250", "--scenario-grid", "what-ifs", "--sweep"]
        ) == 2
        assert "--sweep" in capsys.readouterr().err

    def test_campaign_with_unknown_grid_fails_readably(self, capsys):
        assert main(["campaign", "--size", "250", "--scenario-grid", "no-such-grid"]) == 2
        error = capsys.readouterr().err
        assert "unknown scenario grid 'no-such-grid'" in error
        assert "compression-adoption" in error  # the message lists the built-ins

    def test_compare_grid_prints_the_adoption_table(self, capsys):
        assert main(
            ["compare", "--grid", "baseline-2022,universal-compression",
             "--size", "250"]
        ) == 0
        output = capsys.readouterr().out
        assert "Scenario grid 'baseline-2022,universal-compression'" in output
        assert "deltas vs baseline-2022" in output
        assert "adoption fraction" not in output
        assert "universal-compression" in output

    def test_compare_grid_and_scenarios_are_mutually_exclusive(self, capsys):
        assert main(
            ["compare", "--grid", "what-ifs", "--scenarios", "baseline-2022"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_compare_with_malformed_grid_file_fails_readably(self, tmp_path, capsys):
        bad = tmp_path / "grid.json"
        bad.write_text('{"name": "x", "scenarios": [{"nope": 1}]}', encoding="utf-8")
        assert main(["compare", "--grid", str(bad), "--size", "250"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error:") and "unknown scenario field" in error

    def test_compare_progress_reports_reduced_shards(self, capsys):
        assert main(
            ["compare", "--scenarios", "baseline-2022,trimmed-chains",
             "--size", "250", "--progress"]
        ) == 0
        captured = capsys.readouterr()
        assert "Scenario grid" in captured.out
        assert "scenario(s) reduced" in captured.err


class TestDurabilityFlags:
    def test_resume_without_checkpoint_dir_fails_readably(self, capsys):
        assert main(["campaign", "--size", "250", "--stream", "--resume"]) == 2
        assert "--resume needs --checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_dir_without_stream_fails_readably(self, tmp_path, capsys):
        assert main(
            ["campaign", "--size", "250", "--checkpoint-dir", str(tmp_path / "ckpt")]
        ) == 2
        assert "add --stream" in capsys.readouterr().err

    def test_malformed_fault_plan_fails_readably(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text('{"worker": [{"shard": 0, "kind": "explode"}]}', encoding="utf-8")
        assert main(
            ["campaign", "--size", "250", "--stream", "--fault-plan", str(bad)]
        ) == 2
        assert "unknown worker fault kind" in capsys.readouterr().err

    def test_missing_fault_plan_file_fails_readably(self, tmp_path, capsys):
        assert main(
            ["campaign", "--size", "250", "--stream",
             "--fault-plan", str(tmp_path / "absent.json")]
        ) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_bad_retry_knobs_fail_readably(self, capsys):
        assert main(
            ["campaign", "--size", "250", "--stream", "--max-shard-retries", "0"]
        ) == 2
        assert "max_attempts must be positive" in capsys.readouterr().err
        assert main(
            ["campaign", "--size", "250", "--stream", "--shard-timeout", "-1"]
        ) == 2
        assert "shard_timeout must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "0", "inf"])
    def test_unusable_shard_timeout_exits_2_with_one_line(self, value, capsys):
        assert main(
            ["campaign", "--size", "250", "--stream", "--shard-timeout", value]
        ) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "shard_timeout must be positive and finite" in error

    def test_mismatched_resume_directory_fails_readably(self, tmp_path, capsys):
        checkpoint_dir = str(tmp_path / "ckpt")
        assert main(
            ["campaign", "--size", "250", "--stream",
             "--checkpoint-dir", checkpoint_dir,
             "--output", str(tmp_path / "first.txt")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "--size", "300", "--stream", "--resume",
             "--checkpoint-dir", checkpoint_dir]
        ) == 2
        error = capsys.readouterr().err
        assert "different campaign" in error
        assert "size" in error

    def test_checkpoint_and_resume_round_trip_is_byte_identical(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        checkpointed = tmp_path / "checkpointed.txt"
        resumed = tmp_path / "resumed.txt"
        base = ["campaign", "--size", "250", "--stream", "--shard-size", "100"]
        assert main([*base, "--output", str(plain)]) == 0
        assert main(
            [*base, "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--output", str(checkpointed)]
        ) == 0
        assert main(
            [*base, "--checkpoint-dir", str(tmp_path / "ckpt"), "--resume",
             "--output", str(resumed)]
        ) == 0
        assert checkpointed.read_bytes() == plain.read_bytes()
        assert resumed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "--stream", "--skeleton-cache", "DIR"],
            ["campaign", "--stream", "--checkpoint-dir", "DIR"],
            ["campaign", "--skeleton-cache", "DIR"],
            ["campaign", "--scenario-grid", "what-ifs", "--skeleton-cache", "DIR"],
            ["skeletons", "warm", "DIR"],
        ],
        ids=["stream-cache", "stream-checkpoint", "serial-cache", "grid-cache", "warm"],
    )
    def test_unusable_directory_exits_2_with_one_line(self, command, tmp_path, capsys):
        regular_file = tmp_path / "f"
        regular_file.write_text("", encoding="utf-8")
        unusable = str(regular_file / "sub")
        argv = [unusable if part == "DIR" else part for part in command]
        assert main([*argv, "--size", "300"]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert unusable in error
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "--output", "FILE"],
            ["campaign", "--stream", "--output", "FILE"],
            ["campaign", "--export-dir", "DIR"],
            ["campaign", "--stream", "--export-dir", "DIR"],
            ["campaign", "--scenario-grid", "what-ifs", "--output", "DIR"],
            ["campaign", "--scenario-grid", "what-ifs", "--export-dir", "DIR"],
        ],
        ids=["serial-output", "stream-output", "serial-export", "stream-export",
             "grid-output", "grid-export"],
    )
    def test_unusable_output_exits_2_before_generation(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def no_generation(*args, **kwargs):
            raise AssertionError("the campaign ran before its output was checked")

        monkeypatch.setattr("repro.cli._build_campaign", no_generation)
        monkeypatch.setattr("repro.scanners.orchestrator.run_grid_campaign", no_generation)
        regular_file = tmp_path / "f"
        regular_file.write_text("", encoding="utf-8")
        unusable = {"FILE": str(regular_file / "r.txt"), "DIR": str(regular_file / "sub")}
        argv = [unusable.get(part, part) for part in command]
        assert main([*argv, "--size", "300"]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert str(regular_file) in error
        assert "Traceback" not in error

    def test_output_probe_leaves_no_directory_behind(self, tmp_path, monkeypatch, capsys):
        def stop(*args, **kwargs):
            raise SystemExit(9)

        monkeypatch.setattr("repro.scanners.orchestrator.run_grid_campaign", stop)
        output = tmp_path / "new" / "reports"
        with pytest.raises(SystemExit):
            main(["campaign", "--scenario-grid", "what-ifs", "--size", "300",
                  "--output", str(output), "--export-dir", str(tmp_path / "csv")])
        assert sorted(os.listdir(tmp_path)) == []


class TestFailingCheckpointDisk:
    """A checkpoint write that fails mid-run exits 2 and leaves a resumable directory."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_full_disk_exits_2_then_resumes_to_identical_bytes(
        self, workers, tmp_path, capsys, monkeypatch
    ):
        base = ["campaign", "--size", "250", "--stream", "--shard-size", "100",
                "--workers", workers]
        checkpoint_dir = tmp_path / "ckpt"
        plain = tmp_path / "plain.txt"
        resumed = tmp_path / "resumed.txt"
        assert main([*base, "--output", str(plain)]) == 0
        capsys.readouterr()

        real_write = checkpoint_module.atomic_write_bytes
        writes = []

        def full_on_second_write(path, data):
            writes.append(path)
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            real_write(path, data)

        monkeypatch.setattr(checkpoint_module, "atomic_write_bytes", full_on_second_write)
        assert main([*base, "--checkpoint-dir", str(checkpoint_dir)]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "Traceback" not in error
        assert writes[1] in error and os.strerror(errno.ENOSPC) in error
        monkeypatch.undo()

        survivor = writes[0]
        assert [name for name in os.listdir(checkpoint_dir) if name.endswith(".ckpt")] == [
            os.path.basename(survivor)
        ]
        with open(survivor, "rb") as handle:
            survivor_bytes = handle.read()
        assert main(
            [*base, "--checkpoint-dir", str(checkpoint_dir), "--resume",
             "--output", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == plain.read_bytes()
        with open(survivor, "rb") as handle:
            assert handle.read() == survivor_bytes  # folded, not re-scanned


class TestScanBackendFlag:
    def test_scan_backend_flag_parses(self):
        args = build_parser().parse_args(["campaign", "--scan-backend", "columnar"])
        assert args.scan_backend == "columnar"
        assert build_parser().parse_args(["campaign"]).scan_backend is None

    def test_unknown_backend_fails_readably(self, capsys):
        assert main(
            ["campaign", "--size", "250", "--scan-backend", "numpy"]
        ) == 2
        error = capsys.readouterr().err
        assert "unknown scan backend 'numpy'" in error
        assert "columnar" in error  # the message lists the registry

    def test_unknown_backend_fails_before_any_generation(self, capsys):
        # Validation is eager: with a 50M-domain population this returns
        # instantly only if the backend is checked before generation starts.
        assert main(
            ["campaign", "--size", "50000000", "--stream",
             "--scan-backend", "vectorised"]
        ) == 2
        assert "unknown scan backend" in capsys.readouterr().err

    def test_unknown_scenario_fails_before_any_generation(self, capsys):
        # Same eagerness contract for --scenario.
        assert main(
            ["campaign", "--size", "50000000", "--stream",
             "--scenario", "no-such-world"]
        ) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_env_backend_fails_readably(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_BACKEND", "bogus")
        assert main(["campaign", "--size", "250", "--stream"]) == 2
        error = capsys.readouterr().err
        assert "REPRO_SCAN_BACKEND" in error

    def test_columnar_backend_report_is_byte_identical(self, tmp_path):
        reference = tmp_path / "object.txt"
        columnar = tmp_path / "columnar.txt"
        base = ["campaign", "--size", "300", "--stream", "--shard-size", "100"]
        assert main([*base, "--output", str(reference)]) == 0
        assert main(
            [*base, "--scan-backend", "columnar", "--output", str(columnar)]
        ) == 0
        assert columnar.read_bytes() == reference.read_bytes()


    @pytest.mark.parametrize("spelling", ["--scenarios", "--grid"])
    def test_compare_scan_backend_applies_to_both_spellings(
        self, spelling, monkeypatch, capsys
    ):
        from repro.scanners import columnar

        calls = []
        original = columnar.summarize_shard_columnar

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar, "summarize_shard_columnar", spy)
        assert main(
            ["compare", spelling, "baseline-2022,trimmed-chains", "--size", "250",
             "--scan-backend", "columnar"]
        ) == 0
        assert len(calls) == 2  # one shard, two members
        assert "trimmed-chains" in capsys.readouterr().out


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            (["campaign"], "--size", "0"),
            (["campaign"], "--size", "-5"),
            (["campaign"], "--workers", "0"),
            (["campaign"], "--shard-size", "0"),
            (["campaign", "--stream"], "--workers", "0"),
            (["campaign", "--stream"], "--shard-size", "0"),
            (["compare"], "--size", "0"),
            (["compare"], "--workers", "0"),
            (["compare"], "--shard-size", "0"),
            (["skeletons", "warm", "DIR"], "--size", "0"),
            (["skeletons", "gc", "DIR"], "--size", "0"),
        ],
    )
    def test_non_positive_counts_exit_2_with_one_line(
        self, command, flag, value, tmp_path, capsys
    ):
        argv = [str(tmp_path) if part == "DIR" else part for part in command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert f"argument {flag}: must be a positive integer" in error
        assert "Traceback" not in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--scenario", ""],
            ["campaign", "--scenario-grid", ""],
            ["compare", "--scenarios", " "],
            ["compare", "--grid", ""],
            ["scenarios", "--grid", ""],
        ],
        ids=["scenario", "scenario-grid", "compare-scenarios", "compare-grid", "scenarios-grid"],
    )
    def test_empty_scenario_names_exit_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert f"argument {argv[1]}: must not be empty" in error

    @pytest.mark.parametrize("action", ["stats", "gc"])
    def test_inspecting_a_missing_skeleton_cache_creates_nothing(
        self, action, tmp_path, capsys
    ):
        missing = tmp_path / "no-cache"
        assert main(["skeletons", action, str(missing)]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "no skeleton cache directory" in error
        assert not missing.exists()

    @pytest.mark.parametrize("index", ["-1", "shard_count"])
    def test_warm_shard_index_out_of_range_creates_nothing(self, index, tmp_path, capsys):
        from repro.scanners.skeleton_store import shard_count

        size = 50
        if index == "shard_count":
            index = str(shard_count(size))
        directory = tmp_path / "skel"
        argv = ["skeletons", "warm", str(directory), "--size", str(size), "--shards", index]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "out of range" in error and "Traceback" not in error
        assert not directory.exists()

    @pytest.mark.parametrize("value", ["1199", "1473", "0"])
    def test_initial_size_outside_the_wire_model_exits_2_with_one_line(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--chain", "Let's Encrypt R3 + root X1", "--initial-size", value])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert "argument --initial-size: must be within [1200, 1472] bytes" in error
        assert "Traceback" not in error


#: The measurement pipeline: a subcommand that runs no campaign imports none of it.
PIPELINE_PACKAGES = ("repro.scanners", "repro.webpki", "repro.analysis")


class TestLightSubcommandImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--chain", "Let's Encrypt E1 (short)", "--compression", "brotli"],
            ["profiles"],
            ["scenarios", "--names"],
        ],
        ids=["predict", "profiles", "scenarios"],
    )
    def test_leaves_the_pipeline_unimported(self, argv):
        """Checked in a fresh interpreter: this module already imports the pipeline."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"loaded = [name for name in {PIPELINE_PACKAGES!r} if name in sys.modules]\n"
            "print('LOADED', *loaded)\n"
            "raise SystemExit(code)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.splitlines()[-1] == "LOADED"


def _run_module(argv, **kwargs):
    """``python -m repro ARGV`` in a fresh interpreter, with block-buffered
    standard streams (what a redirected run gets by default)."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        stderr=subprocess.PIPE, text=True, timeout=300, env=_module_env(), **kwargs,
    )


def _module_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _processes_mentioning(marker: str):
    """Pids whose command line contains ``marker`` (forked pool workers keep
    their parent's command line)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry))
    return pids


class _Monitoring:
    """A stand-in for ``sys.monitoring`` with the given tools registered."""

    def __init__(self, tools):
        self._tools = tools

    def get_tool(self, tool_id):
        return self._tools.get(tool_id)


class TestModuleExitPath:
    """``python -m repro`` leaves through ``os._exit`` once ``main`` returns,
    skipping heap teardown; no exit path may lose output."""

    def test_campaign_report_equals_in_process_run(self, tmp_path, capsys):
        module_report = tmp_path / "module.txt"
        completed = _run_module(["campaign", "--size", "300", "--output", str(module_report)])
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == f"report written to {module_report}\n"
        in_process = tmp_path / "in-process.txt"
        assert main(["campaign", "--size", "300", "--output", str(in_process)]) == 0
        assert module_report.read_bytes() == in_process.read_bytes()

    def test_stdout_redirected_to_a_file_is_complete(self, tmp_path, capsys):
        listing = tmp_path / "scenarios.txt"
        with open(listing, "w", encoding="utf-8") as handle:
            completed = _run_module(["scenarios"], stdout=handle)
        assert completed.returncode == 0, completed.stderr
        assert main(["scenarios"]) == 0
        assert listing.read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["campaign", "--size", "0"], "argument --size: must be a positive integer"),
            (["predict", "--chain", "No Such CA"], "unknown chain profile"),
        ],
        ids=["argparse-exit", "returned-code"],
    )
    def test_invalid_input_exits_2_with_one_line(self, argv, message):
        completed = _run_module(argv)
        assert completed.returncode == 2
        assert completed.stderr.count("\n") == 1
        assert message in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_profiled_run_still_prints_its_profile(self):
        # cProfile writes its table after the module returns: a profiled
        # run must take the normal exit.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "repro", "profiles"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "function calls" in completed.stdout

    @pytest.fixture
    def unobserved(self, monkeypatch):
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.delattr(sys, "monitoring", raising=False)
        return monkeypatch

    def test_unobserved_run_takes_the_fast_exit(self, unobserved):
        assert not _observed()
        unobserved.setattr(sys, "monitoring", _Monitoring({}), raising=False)
        assert not _observed()

    def test_monitoring_tool_keeps_the_normal_exit(self, unobserved):
        # Python 3.12+ cProfile and coverage register a sys.monitoring tool
        # and set neither a profile nor a trace function.
        unobserved.setattr(sys, "monitoring", _Monitoring({2: "cProfile"}), raising=False)
        assert _observed()

    def test_profile_function_keeps_the_normal_exit(self, unobserved):
        unobserved.setattr(sys, "getprofile", lambda: print)
        assert _observed()

    @pytest.mark.skipif(
        getattr(fcntl, "F_SETPIPE_SZ", None) is None, reason="needs a resizable pipe (Linux)"
    )
    def test_reader_closing_the_pipe_ends_the_run_quietly(self):
        # A one-page pipe holds less than the report, so the writer is still
        # blocked when the reader closes it after the first line.
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        try:
            with open(write_end, "wb") as stdout:
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro", "campaign", "--size", "250"],
                    stdout=stdout, stderr=subprocess.PIPE, env=_module_env(),
                )
            with open(read_end, "rb") as reader:
                first_line = reader.readline()
        finally:
            _, stderr = process.communicate(timeout=300)
        assert first_line.startswith(b"QUIC / TLS certificate interplay")
        assert process.returncode == 1
        assert stderr == b""

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to list processes")
    def test_worker_run_leaves_no_child_process(self, tmp_path):
        report = tmp_path / "workers-report.txt"
        completed = _run_module(
            ["campaign", "--size", "600", "--workers", "2", "--output", str(report)]
        )
        assert completed.returncode == 0, completed.stderr
        assert report.read_text(encoding="utf-8").strip()
        assert _processes_mentioning(str(report)) == []
