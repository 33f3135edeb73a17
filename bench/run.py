"""Cold-process benchmark of the ``python -m repro`` CLI (see bench/README.md).

Usage, from the repository root::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S | --reps N]
                        [--trace [0|1]] [--size N] [--out FILE]
    python bench/run.py --compare A.json B.json

Every repetition starts the CLI as a fresh process; end-to-end metrics come
from untraced repetitions only.  ``--trace 1`` alternates untraced and traced
repetitions (``bench/traced_cli.py``) and reports the per-layer table.  Every
report is checked byte for byte.  The last line on stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
import traced_cli  # noqa: E402

#: Scratch space inside the checkout; per-run subdirectories are removed at
#: the end, the ``trace-<workload>.jsonl`` files are kept.
WORK_DIR = os.path.join(ROOT, ".bench_work")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 2022
#: Fewest measured repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A repetition running longer than this is killed and counted as failed.
REP_TIMEOUT_S = 60.0
#: Scan-shard size passed to the checkpointed workload, so the number of
#: checkpoint files it must leave follows from the benchmark's own input.
SCAN_SHARD_SIZE = 2048


@dataclass(frozen=True)
class Workload:
    """One ``repro`` command; ``{rep}`` and ``{warm}`` name directories."""

    size: int
    argv: Tuple[str, ...]
    #: Reports one run writes (a grid writes one per member scenario).
    scenarios: int = 1
    workers: int = 1
    #: Set-up pre-warms a skeleton cache (``{warm}``) with ``repro skeletons warm``.
    warm: bool = False
    #: Traced-run values that show the workload took the path its name says.
    expect: Tuple[Tuple[str, float], ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "stream-cold": Workload(
        size=20_000,
        argv=(
            "campaign", "--stream", "--scan-backend", "columnar", "--workers", "2",
            "--shard-size", str(SCAN_SHARD_SIZE),
            "--skeleton-cache", "{rep}/skel", "--checkpoint-dir", "{rep}/ckpt",
        ),
        workers=2,
        expect=(
            ("skeleton_store.hit_ratio", 0.0),
            ("x509.deferred_expand.calls", 0),
            ("scenarios.transform.calls", 0),
            ("sharding.attempts_per_shard", 1.0),
        ),
    ),
    "stream-warm": Workload(
        size=20_000,
        argv=(
            "campaign", "--stream", "--scan-backend", "columnar", "--workers", "1",
            "--skeleton-cache", "{warm}",
        ),
        warm=True,
        expect=(
            ("skeleton_store.hit_ratio", 1.0),
            ("skeleton_store.write.calls", 0),
            ("x509.issue.generation_calls", 0),
            ("scenarios.transform.calls", 0),
            ("sharding.attempts_per_shard", 1.0),
        ),
    ),
    "grid-whatifs": Workload(
        size=4_000,
        argv=("campaign", "--scenario-grid", "what-ifs", "--scan-backend", "columnar"),
        scenarios=6,
        expect=(("sharding.attempts_per_shard", 1.0),),
    ),
    "eager-sweep": Workload(
        size=2_000,
        argv=("campaign", "--sweep"),
        expect=(
            ("columnar.kernel.calls", 0),
            ("scenarios.transform.calls", 0),
            ("sharding.shards", 0),
        ),
    ),
}


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    """The CLI's environment: no ``REPRO_*`` knob may change what is measured."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    #: Exit code, or ``None`` when the timeout killed the process.
    code: Optional[int]
    #: ``ru_maxrss`` of the process and its reaped children (MiB).
    rss_mb: float
    log_path: str

    def failure(self) -> Optional[str]:
        if self.code is None:
            return f"timed out after {REP_TIMEOUT_S:.0f} s"
        if self.code != 0:
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read().strip().splitlines()[-1:]
            return f"exit code {self.code}: {' '.join(tail)}"
        return None


def run_process(argv: List[str], log_path: str) -> Proc:
    """Run one cold process; wall clock and peak RSS come from ``os.wait4``."""
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=log, start_new_session=True,
        )
        timer = threading.Timer(REP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    try:
        # Whatever the CLI left in its session (nothing, normally) goes too.
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = None if timed_out.is_set() and process.returncode < 0 else process.returncode
    return Proc(wall, code, usage.ru_maxrss / 1024.0, log_path)


def repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def import_seconds(log_path: str) -> float:
    """Cumulative ``-X importtime`` of the top-level ``repro`` imports."""
    total_us = 0
    with open(log_path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if not line.startswith("import time:"):
                continue
            parts = line.split("|")
            name = parts[2].rstrip("\n")
            if name.startswith(" ") and not name.startswith("  ") and (
                name[1:] == "repro" or name[1:].startswith("repro.")
            ):
                total_us += int(parts[1])
    return total_us / 1e6


def read_reports(path: str) -> Dict[str, bytes]:
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    reports = {}
    for name in names:
        with open(os.path.join(path, name) if name else path, "rb") as handle:
            reports[name or os.path.basename(path)] = handle.read()
    return reports


def git_commit() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

LAYER_OF = {target: layer for layer, targets in traced_cli.LAYERS.items() for target in targets}
STAGE5 = "orchestrator.stage5"
GENERATE_SKELETONS = "repro.webpki.population:_generate_shard_skeletons"
LOAD_OR_GENERATE = "repro.scanners.skeleton_store:SkeletonStore.load_or_generate"
ISSUE = "repro.x509.issuance:issue_leaf_fast"


@dataclass(frozen=True)
class Span:
    pid: int
    index: int
    target: str
    parent: int
    start_ns: int
    end_ns: int
    self_ns: int
    key: int

    @property
    def layer(self) -> str:
        return LAYER_OF[self.target]


def read_trace(trace_dir: str) -> Tuple[Dict, List[Span]]:
    with open(os.path.join(trace_dir, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    targets = meta["targets"]
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.bin"))):
        pid = int(os.path.basename(path)[len("spans-"):-len(".bin")])
        values = array("q")
        with open(path, "rb") as handle:
            values.frombytes(handle.read())
        width = traced_cli.SPAN_FIELDS
        batch = 0
        for index in range(len(values) // width):
            target, parent, start, end, self_ns, key = values[index * width : (index + 1) * width]
            if parent == -1:
                batch = index
            else:
                parent += batch
            spans.append(Span(pid, index, targets[target], parent, start, end, self_ns, key))
    return meta, spans


def layer_metrics(meta: Dict, spans: List[Span], wall_s: float) -> Tuple[Dict[str, float], Dict]:
    """Per-layer metrics of one traced repetition, plus the printed extras."""
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_pid[span.pid].append(span)

    def ancestors(span: Span):
        siblings = by_pid[span.pid]
        while span.parent != -1:
            span = siblings[span.parent]
            yield span

    self_ns: Dict[str, int] = defaultdict(int)
    parent_self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    top_level_ns = 0
    shard_walls: List[float] = []
    shard_keys = set()
    loads = misses = generation_issues = 0
    for span in spans:
        layer = span.layer
        self_ns[layer] += span.self_ns
        calls[layer] += 1
        if span.pid == meta["pid"]:
            parent_self_ns[layer] += span.self_ns
            if span.parent == -1:
                top_level_ns += span.end_ns - span.start_ns
        if span.target in traced_cli.SHARD_TARGETS:
            shard_walls.append((span.end_ns - span.start_ns) / 1e9)
            shard_keys.add(span.key)
        elif span.target == LOAD_OR_GENERATE:
            loads += 1
        elif span.target == GENERATE_SKELETONS:
            misses += any(a.target == LOAD_OR_GENERATE for a in ancestors(span))
        elif span.target == ISSUE:
            generation_issues += all(a.layer != STAGE5 for a in ancestors(span))

    unattributed_s = wall_s - top_level_ns / 1e9
    flight = meta["flight_cache"]
    lookups = flight["hits"] + flight["misses"]
    metrics: Dict[str, float] = {
        "trace.wall_s": wall_s,
        "unattributed_s": unattributed_s,
        "skeleton_store.hit_ratio": (loads - misses) / loads if loads else 0.0,
        "quic.flight_cache.hit_ratio": flight["hits"] / lookups if lookups else 0.0,
        "sharding.shards": len(shard_keys),
        "sharding.attempts_per_shard": len(shard_walls) / len(shard_keys) if shard_keys else 0.0,
        "x509.issue.generation_calls": generation_issues,
    }
    for layer in traced_cli.LAYERS:
        metrics[f"{layer}.self_frac"] = self_ns[layer] / 1e9 / wall_s
        metrics[f"{layer}.calls"] = calls[layer]
    shard_q = quartiles(sorted(shard_walls)) if shard_walls else (0.0, 0.0, 0.0)
    accounted_s = sum(parent_self_ns.values()) / 1e9 + unattributed_s
    extras = {
        "rows": [
            (layer, self_ns[layer] / 1e9, parent_self_ns[layer] / 1e9, calls[layer])
            for layer in traced_cli.LAYERS
        ],
        "shard_latency_s": {"p50": shard_q[1], "p75": shard_q[2], "n": len(shard_walls)},
        "dispatch_wait_s": parent_self_ns["sharding.dispatch"] / 1e9,
        "closure_error_frac": abs(accounted_s - wall_s) / wall_s,
    }
    return metrics, extras


def write_trace_jsonl(path: str, spans: List[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "pid": span.pid, "id": span.index, "parent": span.parent,
                "name": span.target, "layer": span.layer,
                "start_ns": span.start_ns, "end_ns": span.end_ns, "self_ns": span.self_ns,
                "shard": span.key if span.key != -1 else None,
            }) + "\n")


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

@dataclass
class WorkloadRun:
    name: str
    seed: int
    size: int
    root: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    expected: Optional[Dict[str, str]] = None
    pinned: bool = False
    #: Serial number of the last scratch directory (names reps in messages).
    serial: int = 0

    @property
    def workload(self) -> Workload:
        return WORKLOADS[self.name]

    def fresh_dir(self, label: str) -> str:
        self.serial += 1
        path = os.path.join(self.root, f"{label}-{self.serial}")
        os.makedirs(path)
        return path

    def cli_args(self, workload: Workload, rep_dir: str, output: str) -> List[str]:
        warm = os.path.join(self.root, "warm")
        args = [arg.format(rep=rep_dir, warm=warm) for arg in workload.argv]
        return args + ["--size", str(self.size), "--seed", str(self.seed), "--output", output]

    def setup(self) -> Tuple[float, float]:
        """Probe the CLI (``-X importtime``), then pre-warm the cache if needed."""
        start = time.perf_counter()
        probe = self.run_setup_step(
            [sys.executable, "-X", "importtime", "-m", "repro", "scenarios", "--names"], "probe"
        )
        if self.workload.warm:
            warm = os.path.join(self.root, "warm")
            shutil.rmtree(warm, ignore_errors=True)
            self.run_setup_step(
                repro("skeletons", "warm", warm, "--size", str(self.size), "--seed", str(self.seed)),
                "warm",
            )
        return time.perf_counter() - start, import_seconds(probe.log_path)

    def run_setup_step(self, argv: List[str], label: str) -> Proc:
        proc = run_process(argv, os.path.join(self.fresh_dir(label), "stderr.log"))
        reason = proc.failure()
        if reason is not None:
            raise SystemExit(f"{self.name}: set-up step '{label}' failed ({reason})")
        return proc

    def rep(self, traced: bool = False, workload: Optional[Workload] = None) -> Optional[Proc]:
        """One checked repetition; returns the process unless it failed.

        ``workload`` runs another workload's command as a reference whose
        reports must equal this workload's.
        """
        if workload is not None:
            label = "reference"
        else:
            label, workload = ("traced" if traced else "rep"), self.workload
        rep_dir = self.fresh_dir(label)
        output = os.path.join(rep_dir, "report.txt" if workload.scenarios == 1 else "reports")
        args = self.cli_args(workload, rep_dir, output)
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    os.path.join(rep_dir, "trace"), *args]
        else:
            argv = repro(*args)
        self.attempted += 1
        proc = run_process(argv, os.path.join(rep_dir, "stderr.log"))
        reason = proc.failure()
        if reason is None:
            try:
                reason = self.check_reports(read_reports(output), workload)
            except OSError as error:
                reason = f"cannot read the report: {error}"
        if reason is None and workload is WORKLOADS["stream-cold"]:
            reason = check_stores(rep_dir, self.size)
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{label} {self.serial}: {reason}")
            return None
        return proc

    def check_reports(self, reports: Dict[str, bytes], workload: Workload) -> Optional[str]:
        digests = {name: sha256(data) for name, data in reports.items()}
        if len(digests) != workload.scenarios:
            return f"expected {workload.scenarios} report(s), found {len(digests)}"
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            source = "the pinned seed-2022 digests" if self.pinned else "the first repetition"
            return f"report bytes differ from {source}"
        return None

    def cleanup_reps(self) -> None:
        for pattern in ("rep-*", "traced-*"):
            for path in glob.glob(os.path.join(self.root, pattern)):
                shutil.rmtree(path, ignore_errors=True)


def check_stores(rep_dir: str, size: int) -> Optional[str]:
    """The cold run wrote every generation shard and checkpointed every scan shard."""
    skel_dir = os.path.join(rep_dir, "skel")
    try:
        with open(os.path.join(skel_dir, "skeletons.json"), encoding="utf-8") as handle:
            generation_shard_size = json.load(handle)["generation_shard_size"]
        skel = sum(name.endswith(".skel") for name in os.listdir(skel_dir))
        ckpt = sum(name.endswith(".ckpt") for name in os.listdir(os.path.join(rep_dir, "ckpt")))
    except (OSError, ValueError, KeyError) as error:
        return f"cannot inspect the cache/checkpoint directories: {error}"
    want_skel = -(-size // generation_shard_size)
    want_ckpt = -(-size // SCAN_SHARD_SIZE)
    if (skel, ckpt) != (want_skel, want_ckpt):
        return f"left {skel} .skel and {ckpt} .ckpt files, expected {want_skel} and {want_ckpt}"
    return None


def summary(values: List[float]) -> Dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def measure(name: str, seed: int, size: Optional[int], seconds: float,
            reps: Optional[int], trace: bool) -> Dict:
    """Set up, repeat and check one workload; returns its result record."""
    workload = WORKLOADS[name]
    run = WorkloadRun(
        name=name, seed=seed, size=size or workload.size,
        root=os.path.join(WORK_DIR, f"{name}-{os.getpid()}"),
    )
    shutil.rmtree(run.root, ignore_errors=True)
    os.makedirs(run.root)
    pinned = load_pinned(name, seed, run.size)
    if pinned is not None:
        run.expected, run.pinned = pinned, True
    try:
        setups = [run.setup() for _ in range(min(SETUP_REPS, reps or SETUP_REPS))]
        walls: List[float] = []
        rss: List[float] = []
        overheads: List[float] = []
        layer_runs: List[Tuple[Dict[str, float], Dict]] = []
        last_spans: List[Span] = []
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            # Traced rounds run an untraced/traced pair, alternating which
            # goes first; the overhead is the median of the pairs' ratios.
            if not trace:
                order: Tuple[bool, ...] = (False,)
            elif rounds % 2:
                order = (True, False)
            else:
                order = (False, True)
            pair = {}
            for traced in order:
                pair[traced] = proc = run.rep(traced=traced)
                if proc is None:
                    continue
                if not traced:
                    walls.append(proc.wall_s)
                    rss.append(proc.rss_mb)
                    continue
                meta, last_spans = read_trace(os.path.join(os.path.dirname(proc.log_path), "trace"))
                layer_runs.append(layer_metrics(meta, last_spans, proc.wall_s))
            if trace and pair[True] and pair[False]:
                overheads.append(pair[True].wall_s / pair[False].wall_s - 1.0)
            run.cleanup_reps()
            rounds += 1
            elapsed = time.perf_counter() - start
            if reps is not None:
                if rounds >= reps:
                    break
            elif rounds >= (2 if trace else MIN_REPS) and (
                elapsed + (time.perf_counter() - round_start) > seconds
            ):
                break
        if workload.warm:
            # The warm report must equal the cold workload's bytes.
            run.rep(workload=WORKLOADS["stream-cold"])
    finally:
        shutil.rmtree(run.root, ignore_errors=True)

    record: Dict = {
        "workload": name, "seed": seed, "size": run.size,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "oversubscribed": workload.workers > (os.cpu_count() or 1),
        "problems": run.problems, "e2e": {},
    }
    if walls:
        domains = run.size * workload.scenarios
        record["e2e"] = {
            "wall_s": summary(walls),
            "throughput_dps": summary([domains / wall for wall in walls]),
            "peak_rss_mb": summary(rss),
            "setup_s": summary([setup_s for setup_s, _ in setups]),
        }
    if trace and layer_runs:
        record["layers"] = traced_layers(run, layer_runs, overheads, setups)
        path = os.path.join(WORK_DIR, f"trace-{name}.jsonl")
        write_trace_jsonl(path, last_spans)
        record["trace_file"] = os.path.relpath(path, ROOT)
    elif trace:
        run.problems.append("no traced repetition succeeded")
    record["correct"] = run.failed == 0 and not run.problems
    return record


def traced_layers(run: WorkloadRun, layer_runs, overheads, setups) -> Dict:
    metrics = {
        name: statistics.median(values[name] for values, _ in layer_runs)
        for name in layer_runs[0][0]
    }
    metrics["cli.import_s"] = statistics.median(import_s for _, import_s in setups)
    metrics["trace.overhead_frac"] = statistics.median(overheads) if overheads else 0.0
    for values, _ in layer_runs:
        for name, want in run.workload.expect:
            if values[name] != want:
                run.problems.append(f"{name} = {values[name]} on {run.name}, expected {want}")
    extras = layer_runs[-1][1]
    if extras["closure_error_frac"] > 0.02:
        run.problems.append(
            f"layer self times miss the traced wall by {extras['closure_error_frac']:.1%}"
        )
    return {"metrics": metrics, "extras": extras}


def load_pinned(name: str, seed: int, size: int) -> Optional[Dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    entry = pinned["workloads"].get(name)
    if seed != pinned["seed"] or entry is None or entry["size"] != size:
        return None
    return entry["reports"]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_record(record: Dict, benchmark: Dict) -> None:
    status = "oversubscribed" if record["oversubscribed"] else "not oversubscribed"
    print(f"== {record['workload']}  seed {record['seed']}  size {record['size']}  "
          f"({status} on {os.cpu_count()} cpu)")
    for metric in benchmark["end_to_end"]:
        stats = record["e2e"].get(metric["name"])
        if stats is not None:
            print(f"  {metric['name']:<16} {stats['median']:>12.4f} {metric['unit']:<10} "
                  f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n {stats['n']}")
    print(f"  {'failed_frac':<16} {record['failed_frac']:>12.4f} {'frac':<10} "
          f"{record['failed']}/{record['attempted']} repetitions")
    layers = record.get("layers")
    if layers is not None:
        metrics, extras = layers["metrics"], layers["extras"]
        wall = metrics["trace.wall_s"]
        print(f"  layer table (last traced repetition, traced wall {wall:.4f} s; "
              "self_s sums over every process)")
        print(f"    {'layer':<24} {'self_s':>9} {'share':>7} {'parent_s':>9} {'calls':>8}")
        for layer, self_s, parent_s, calls in extras["rows"]:
            print(f"    {layer:<24} {self_s:>9.4f} {self_s / wall:>7.1%} {parent_s:>9.4f} {calls:>8}")
        print(f"    {'unattributed_s':<24} {metrics['unattributed_s']:>9.4f}")
        shard = extras["shard_latency_s"]
        print(f"    cli.import_s {metrics['cli.import_s']:.4f}  "
              f"sharding.dispatch.wait_s {extras['dispatch_wait_s']:.4f}  "
              f"shard.latency p50 {shard['p50']:.4f} s p75 {shard['p75']:.4f} s (n {shard['n']})")
        print(f"    skeleton_store.hit_ratio {metrics['skeleton_store.hit_ratio']:.3f}  "
              f"quic.flight_cache.hit_ratio {metrics['quic.flight_cache.hit_ratio']:.3f}  "
              f"sharding.attempts_per_shard {metrics['sharding.attempts_per_shard']:.3f}  "
              f"x509.issue.generation_calls {metrics['x509.issue.generation_calls']}")
        print(f"    trace.overhead_frac {metrics['trace.overhead_frac']:+.2%}  "
              f"closure error {extras['closure_error_frac']:.3%}  "
              f"spans in {record.get('trace_file')}")
    for problem in record["problems"]:
        print(f"  FAIL {record['workload']}: {problem}", file=sys.stderr)


def result_line(records: List[Dict], benchmark: Dict, trace: bool) -> Dict:
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}:"
        for metric in benchmark[kind]:
            if trace:
                value = record.get("layers", {}).get("metrics", {}).get(metric["name"])
            else:
                value = record["e2e"].get(metric["name"], {}).get("median")
            if value is not None:
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Comparing two result files
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str, benchmark: Dict) -> int:
    """Print, per (end-to-end metric, workload), both medians and a verdict."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    disagreements = 0
    print(f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30}  {'change':>8}  verdict")
    for name in [name for name in a if name in b]:
        for metric in benchmark["end_to_end"]:
            sa, sb = a[name]["e2e"].get(metric["name"]), b[name]["e2e"].get(metric["name"])
            if sa is None or sb is None:
                continue
            verdict = compare_verdict(sa, sb, metric)
            disagreements += verdict not in ("within bound", "better")
            change = sb["median"] / sa["median"] - 1.0
            print(f"{name:<14} {metric['name']:<16} "
                  f"{sa['median']:>10.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] "
                  f"{sb['median']:>10.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}]  "
                  f"{change:>+8.2%}  {verdict} (bound {metric['bound']:.0%})")
        fa, fb = a[name]["failed_frac"], b[name]["failed_frac"]
        disagreements += fb > fa
        print(f"{name:<14} {'failed_frac':<16} {fa:>10.4f} {'':>19}{fb:>10.4f} {'':>20}  "
              f"{'worse' if fb > fa else 'within bound'} (bound 0)")
    return 1 if disagreements else 0


def compare_verdict(sa: Dict, sb: Dict, metric: Dict) -> str:
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (sb["median"] - sa["median"]) / sa["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    b_always_better = all(sign * (vb - va) < 0 for vb in sb["values"] for va in sa["values"])
    if spread > bound and not b_always_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within bound"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]], benchmark: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="population seed")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--reps", type=int, default=None,
                        help="fixed repetition count instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add traced repetitions and print per-layer metrics")
    parser.add_argument("--size", type=int, default=None,
                        help="domains per population for every workload (default: per workload)")
    parser.add_argument("--out", default=None, help="also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.size is not None and args.size < 1:
        parser.error("--size must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.compare:
        return compare(*args.compare, benchmark)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    print(f"# cpu_count {env['cpu_count']}  loadavg {env['loadavg'][0]:.2f}  "
          f"python {env['python']}  {env['platform']}  commit {env['commit']}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = [
        measure(name, args.seed, args.size, args.seconds, args.reps, bool(args.trace))
        for name in names
    ]
    for record in records:
        print_record(record, benchmark)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "seconds": args.seconds,
                       "workloads": {record["workload"]: record for record in records}},
                      handle, indent=1)
    line = result_line(records, benchmark, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
