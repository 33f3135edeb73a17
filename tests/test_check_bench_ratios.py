"""Tests for scripts/check_bench_ratios.py over synthetic records and spans.

No CLI process is started: ``bench_run.measure`` is replaced by a stub that
returns hand-built records whose trace files live under ``tmp_path``.
"""

import importlib.util
import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_bench_ratios", os.path.join(_ROOT, "scripts", "check_bench_ratios.py")
)
ratios = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ratios)


def span(pid, index, parent, layer, self_ns):
    return {"pid": pid, "id": index, "parent": parent, "layer": layer, "self_ns": self_ns}


def test_generation_self_time_leaves_out_stage5_issuance():
    # A main process whose stage 5 issues leaves, directly and below a
    # materialisation, and a worker that reads a skeleton shard.
    spans = [
        span(1, 0, -1, "cli.main", 7),
        span(1, 1, 0, "webpki.generate", 100),
        span(1, 2, 0, "orchestrator.stage5", 50),
        span(1, 3, 2, "x509.issue", 1_000),
        span(1, 4, 1, "x509.issue", 10),
        span(1, 5, 2, "webpki.materialize", 40),
        span(1, 6, 5, "x509.issue", 400),
        span(2, 0, -1, "sharding.shard", 3),
        span(2, 1, 0, "skeleton_store.read", 5),
        span(2, 2, 0, "columnar.kernel", 999),
    ]
    assert ratios.generation_self_ns(spans) == 100 + 10 + 5


@pytest.mark.parametrize(
    "ceiling",
    [ratios.MAX_WARM_GENERATION_RATIO, ratios.MAX_GRID_RATIO, ratios.MAX_KERNEL_SHARE],
    ids=["warm", "grid", "kernel"],
)
def test_each_gate_passes_at_its_ceiling_and_fails_just_above(ceiling, capsys):
    assert ratios.verdict("gate", [0.0, ceiling, 1.0], ceiling)
    assert ratios.verdict("gate", [ceiling] * 3, ceiling)
    assert not ratios.verdict("gate", [ceiling + 1e-6] * 3, ceiling)
    assert not ratios.verdict("gate", [0.0, ceiling + 1e-6, 1.0], ceiling)
    assert "FAIL gate: median" in capsys.readouterr().out


def test_a_gate_without_any_gated_round_fails(capsys):
    assert not ratios.verdict("gate", [], 1.0)
    assert "no round could be gated" in capsys.readouterr().out


def record(workload, spans, tmp_path, correct=True, kernel_share=0.1):
    path = tmp_path / f"trace-{workload}.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    return {
        "workload": workload,
        "correct": correct,
        "problems": [] if correct else ["skeleton_store.hit_ratio = 0.8, expected 1.0"],
        "trace_file": str(path),
        "layers": {"metrics": {"columnar.kernel.self_frac": kernel_share}},
    }


@pytest.fixture
def measured(tmp_path, monkeypatch):
    """Stub ``measure``: the records it returns, keyed by workload name."""
    records = {}
    monkeypatch.setattr(
        ratios.bench_run, "measure", lambda name, *args, **kwargs: records[name]
    )
    return records


def test_warm_round_is_warm_over_cold_generation(tmp_path, measured):
    cold = [span(1, 0, -1, "webpki.generate", 1_000)]
    warm = [span(1, 0, -1, "skeleton_store.read", 120), span(1, 1, -1, "columnar.kernel", 5)]
    measured["stream-cold"] = record("stream-cold", cold, tmp_path)
    measured["stream-warm"] = record("stream-warm", warm, tmp_path, kernel_share=0.13)
    values, problems = ratios.warm_round()
    assert problems == []
    assert values == (pytest.approx(0.12), 0.13)


@pytest.mark.parametrize("incorrect", ["stream-cold", "stream-warm"])
def test_a_record_that_is_not_correct_fails_the_round(incorrect, tmp_path, measured):
    for name in ("stream-cold", "stream-warm"):
        measured[name] = record(
            name, [span(1, 0, -1, "webpki.generate", 10)], tmp_path, correct=name != incorrect
        )
    values, problems = ratios.warm_round()
    assert values is None
    assert problems and all(problem.startswith(f"{incorrect}: ") for problem in problems)
