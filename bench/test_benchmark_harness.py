"""Self-test of the benchmark harness on tiny populations (runs in ~10 s).

Every workload shape runs once untraced and once traced at 600 domains, so
the harness's metric names, tracer and output checks are exercised by the
tier-1 suite without the benchmark's real run length.
"""

import importlib.util
import json
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(_HERE, "run.py"))
bench_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

SIZE = 600


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    original = bench_run.WORK_DIR
    bench_run.WORK_DIR = str(tmp_path_factory.mktemp("bench_work"))
    yield bench_run.WORK_DIR
    bench_run.WORK_DIR = original


@pytest.fixture(scope="module")
def traced_records(work_dir):
    return {
        name: bench_run.measure(name, seed=2022, size=SIZE, seconds=0, reps=1, trace=True)
        for name in bench_run.WORKLOADS
    }


def test_every_workload_passes_its_checks(traced_records):
    for name, record in traced_records.items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0


def test_metric_names_and_units_match_benchmark_json(traced_records):
    benchmark = bench_run.load_benchmark()
    for record in traced_records.values():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            line = bench_run.result_line([record], benchmark, trace)
            assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
                metric["name"]: metric["unit"] for metric in benchmark[kind]
            }


def test_tracer_wraps_names_bound_by_from_import(traced_records):
    # repro.cli binds generate_population with ``from .webpki import ...``.
    metrics = traced_records["eager-sweep"]["layers"]["metrics"]
    assert metrics["webpki.population.calls"] == 1
    assert metrics["x509.issue.calls"] > 0


def test_span_self_time_never_exceeds_duration(traced_records):
    for name, record in traced_records.items():
        path = os.path.join(bench_run.ROOT, record["trace_file"])
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, name
        for span in spans:
            assert 0 <= span["self_ns"] <= span["end_ns"] - span["start_ns"], span


def test_tampered_report_counts_as_failed(work_dir, monkeypatch):
    read_reports = bench_run.read_reports
    calls = []

    def tampered(path):
        reports = read_reports(path)
        calls.append(path)
        if len(calls) == 2:
            reports = {name: data + b"!" for name, data in reports.items()}
        return reports

    monkeypatch.setattr(bench_run, "read_reports", tampered)
    record = bench_run.measure("eager-sweep", seed=2022, size=SIZE, seconds=0, reps=2, trace=False)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert record["failed_frac"] == 0.5
    assert not record["correct"]
