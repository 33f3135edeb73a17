#!/usr/bin/env python3
"""Gate three within-run ratios over real ``python -m repro`` CLI runs.

Usage, from the repository root (no options)::

    python3 scripts/check_bench_ratios.py

Every process is started, timed and traced by ``bench/run.py`` (its
``measure`` and ``run_process``); this script only combines their records
and trace files.  Each gate compares two measurements taken in the same
round on the same machine, so a faster or slower runner cannot trip it, and
each gate is the median over :data:`ROUNDS` rounds:

1. *Warm generation.*  Generation self time of a traced ``stream-warm``
   run, over that of a traced ``stream-cold`` run, is at most
   :data:`MAX_WARM_GENERATION_RATIO`.  Both records must be correct, which
   includes the warm run's skeleton-store hit ratio of 1.0 (no warm miss).
2. *Grid amortisation.*  ``campaign --scenario-grid what-ifs`` takes at most
   :data:`MAX_GRID_RATIO` of the summed wall clocks of one independent
   ``--stream`` campaign per member, and writes the same report bytes.
3. *Columnar kernel share.*  ``columnar.kernel.self_frac`` of the traced
   ``stream-warm`` runs is at most :data:`MAX_KERNEL_SHARE`, 25% above
   :data:`KERNEL_SHARE_BASE`.

Exits 0 when all three gates pass, 1 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
bench_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

SIZE = 5_000
SEED = 2022
ROUNDS = 3
GRID = "what-ifs"

MAX_WARM_GENERATION_RATIO = 0.15
MAX_GRID_RATIO = 0.55
#: Median ``columnar.kernel.self_frac`` of nine traced ``stream-warm``
#: repetitions at SIZE, each taken as :func:`warm_round` takes it (quartiles
#: 0.103-0.106; 2-vCPU x86-64 VM, Python 3.11), re-measured when the kernel
#: began reading the skeleton store's columns.  Being a share of one run's
#: own wall clock, it does not move with the machine's speed.
KERNEL_SHARE_BASE = 0.104
KERNEL_SHARE_TOLERANCE = 0.25
MAX_KERNEL_SHARE = KERNEL_SHARE_BASE * (1.0 + KERNEL_SHARE_TOLERANCE)

#: Layers whose self time is generation: building the ranked list and the
#: skeletons, materialising chains, issuing and expanding leaves, and the
#: skeleton store that replaces all of that on a warm run.
GENERATION_LAYERS = frozenset({
    "webpki.tranco", "webpki.generate", "webpki.materialize",
    "x509.issue", "x509.deferred_expand",
    "skeleton_store.range", "skeleton_store.read", "skeleton_store.write",
})
#: Stage 5 issues its own leaves after the scan; they are not generation
#: (the same rule as ``x509.issue.generation_calls`` in ``bench/run.py``).
STAGE5 = "orchestrator.stage5"


def generation_self_ns(spans: List[Dict]) -> int:
    """Self time of the generation layers, outside any stage-5 span."""
    by_id = {(span["pid"], span["id"]): span for span in spans}

    def under_stage5(span: Dict) -> bool:
        while span["parent"] != -1:
            span = by_id[(span["pid"], span["parent"])]
            if span["layer"] == STAGE5:
                return True
        return False

    return sum(
        span["self_ns"] for span in spans
        if span["layer"] in GENERATION_LAYERS and not under_stage5(span)
    )


def record_problems(*records: Dict) -> List[str]:
    """One line per ``measure`` record that is not correct (empty when all are)."""
    return [
        f"{record['workload']}: {'; '.join(record['problems'])}"
        for record in records if not record["correct"]
    ]


def verdict(name: str, values: List[float], ceiling: float) -> bool:
    """Print one gate's median against its ceiling; True when it holds."""
    if not values:
        print(f"FAIL {name}: no round could be gated")
        return False
    median = statistics.median(values)
    passed = median <= ceiling
    shown = " ".join(f"{value:.3f}" for value in values)
    print(f"{'ok  ' if passed else 'FAIL'} {name}: median {median:.3f} "
          f"(ceiling {ceiling:.3f}; rounds {shown})")
    return passed


def read_spans(record: Dict) -> List[Dict]:
    with open(os.path.join(ROOT, record["trace_file"]), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def warm_round() -> Tuple[Optional[Tuple[float, float]], List[str]]:
    """One traced cold and warm run: (generation ratio, warm kernel share), problems."""
    cold = bench_run.measure("stream-cold", SEED, SIZE, 0, reps=1, trace=True)
    warm = bench_run.measure("stream-warm", SEED, SIZE, 0, reps=1, trace=True)
    problems = record_problems(cold, warm)
    if problems:
        return None, problems
    ratio = generation_self_ns(read_spans(warm)) / generation_self_ns(read_spans(cold))
    return (ratio, warm["layers"]["metrics"]["columnar.kernel.self_frac"]), []


def grid_round(
    work_dir: str, members: List[str], grid_first: bool
) -> Tuple[Optional[float], List[str]]:
    """Grid wall over the summed independent walls, and any failed run or byte mismatch."""
    common = ["--scan-backend", "columnar", "--size", str(SIZE), "--seed", str(SEED)]
    grid_out = os.path.join(work_dir, "grid")
    runs = [("grid", ["--scenario-grid", GRID, "--output", grid_out])]
    runs += [
        (member, ["--stream", "--scenario", member,
                  "--output", os.path.join(work_dir, f"{member}.report.txt")])
        for member in members
    ]
    if not grid_first:
        runs = runs[1:] + runs[:1]
    walls: Dict[str, float] = {}
    problems = []
    for label, args in runs:
        proc = bench_run.run_process(
            bench_run.repro("campaign", *args, *common),
            os.path.join(work_dir, f"{label}.log"),
        )
        reason = proc.failure()
        if reason is not None:
            problems.append(f"{label}: {reason}")
        walls[label] = proc.wall_s
    if not problems:
        grid_reports = bench_run.read_reports(grid_out)
        for member in members:
            name = f"{member}.report.txt"
            independent = bench_run.read_reports(os.path.join(work_dir, name))[name]
            if grid_reports.get(name) != independent:
                problems.append(f"grid report {name} differs from its independent run")
    if problems:
        return None, problems
    grid_s = walls.pop("grid")
    return grid_s / sum(walls.values()), []


def grid_members() -> List[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.scenarios import BUILTIN_GRIDS

    return [scenario.name for scenario in BUILTIN_GRIDS[GRID].scenarios]


def main() -> int:
    members = grid_members()
    warm_ratios: List[float] = []
    kernel_shares: List[float] = []
    grid_ratios: List[float] = []
    problems: List[str] = []
    for round_index in range(ROUNDS):
        values, round_problems = warm_round()
        if values is not None:
            warm_ratios.append(values[0])
            kernel_shares.append(values[1])
        problems += round_problems
        work_dir = os.path.join(bench_run.WORK_DIR, f"ratios-{os.getpid()}-{round_index}")
        os.makedirs(work_dir)
        try:
            ratio, round_problems = grid_round(work_dir, members, grid_first=round_index % 2 == 0)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if ratio is not None:
            grid_ratios.append(ratio)
        problems += round_problems
    print(f"# size {SIZE}  seed {SEED}  rounds {ROUNDS}  cpu_count {os.cpu_count()}")
    for problem in problems:
        print(f"FAIL {problem}")
    passed = [
        verdict("warm/cold generation self time", warm_ratios, MAX_WARM_GENERATION_RATIO),
        verdict(f"grid {GRID} / {len(members)} independent runs", grid_ratios, MAX_GRID_RATIO),
        verdict("stream-warm columnar.kernel.self_frac", kernel_shares, MAX_KERNEL_SHARE),
    ]
    return 0 if all(passed) and not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
