#!/usr/bin/env python3
"""List the functions of ``src/repro`` that no user path runs.

Usage, from anywhere (no options)::

    python3 scripts/unreached.py

Runs every CLI invocation of :data:`MATRIX` and every script under
``examples/``, each in a fresh ``python`` child whose ``sys.setprofile``
hook records the code objects that start (forked worker processes record
theirs too and report them when they exit).  An AST walk of ``src/repro``
lists every ``def``; a ``def`` whose first line (its first decorator's, if
decorated) matches no recorded code object is *unreached*.  The script
prints the unreached ``module:qualname``s, then their count and the lines
they span (decorators included, nested ``def``s counted once).

Exits 1 when an invocation ends with an exit code other than the one the
matrix expects (it no longer takes the path it is listed for), or when the
count exceeds :data:`CEILING`.  The ceiling is a ratchet: lower it when a
change reaches or deletes more code, never raise it to pass; a function
kept off every user path (an oracle, say) is listed in the "Oracles and
off-path code" section of ``docs/ARCHITECTURE.md`` and counted here.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
EXAMPLES = os.path.join(ROOT, "examples")

#: Unreached ``def``s allowed; never raised to make the check pass.
CEILING = 61

SIZE = "400"
CHAIN = "Let's Encrypt R3 + cross-signed X1"

#: Files the matrix reads, written into the scratch directory ``{tmp}``.
INPUT_FILES = {
    "scenario.json": json.dumps({
        "name": "ecdsa-trimmed",
        "description": "ECDSA leaves, chains trimmed to two certificates",
        "leaf_key_algorithm": "ECDSA-256",
        "trim_chain_depth": 2,
        "client_compression": ["brotli"],
        "profile_overrides": {"mvfst-like": "rfc-compliant"},
    }),
    "grid.json": json.dumps({
        "name": "initial-axis",
        "description": "two analysis Initial sizes at half compression adoption",
        "base": "baseline-2022",
        "axes": {"analysis_initial_size": [1252, 1400], "compression_adoption": [0.5]},
    }),
    "retry.json": json.dumps({"worker": [{"shard": 0, "attempt": 0, "kind": "raise"}]}),
    "kill.json": json.dumps({"worker": [{"shard": 1, "attempt": 0, "kind": "kill"}]}),
    "stall.json": json.dumps({
        "worker": [{"shard": 0, "attempt": 0, "kind": "stall", "stall_seconds": 6}],
    }),
    "always.json": json.dumps({
        "worker": [{"shard": 0, "attempt": 0, "kind": "raise"},
                   {"shard": 0, "attempt": 1, "kind": "raise"}],
    }),
    "damage.json": json.dumps({
        "checkpoint": [{"shard": 0, "kind": "corrupt"}, {"shard": 1, "kind": "truncate"}],
    }),
    "bad-plan.json": "{\"worker\": [{\"shard\": 0, \"kind\": \"explode\"}]}",
    "not-a-dir": "",
}

#: ``(expected exit code, argv)`` of every recorded CLI invocation, in
#: order (later ones read what earlier ones wrote); ``{tmp}`` is the
#: scratch directory.
MATRIX: List[Tuple[int, List[str]]] = [
    # serial campaign: sweep, CSV export, timings, scenarios, skeleton cache
    (0, ["campaign", "--size", SIZE, "--sweep", "--output", "{tmp}/serial.txt",
         "--export-dir", "{tmp}/serial-csv", "--timings"]),
    (0, ["campaign", "--size", SIZE, "--scenario", "large-initials"]),
    (0, ["campaign", "--size", SIZE, "--sweep", "--skeleton-cache", "{tmp}/skel-serial",
         "--output", "{tmp}/serial-cold.txt"]),
    (0, ["campaign", "--size", SIZE, "--skeleton-cache", "{tmp}/skel-serial",
         "--output", "{tmp}/serial-warm.txt"]),
    # streamed campaign: in-process, workers, columnar, scenario file
    (0, ["campaign", "--size", SIZE, "--stream", "--sweep", "--output", "{tmp}/stream.txt",
         "--export-dir", "{tmp}/stream-csv"]),
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200", "--sweep",
         "--output", "{tmp}/workers.txt"]),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar", "--shard-size", "200",
         "--sweep", "--output", "{tmp}/columnar.txt"]),
    (0, ["campaign", "--size", SIZE, "--stream", "--scenario", "{tmp}/scenario.json",
         "--output", "{tmp}/scenario.txt"]),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar",
         "--scenario", "{tmp}/scenario.json", "--output", "{tmp}/scenario-columnar.txt"]),
    # skeleton cache on the streamed path: cold with the sweep, warm on both backends
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--sweep",
         "--skeleton-cache", "{tmp}/skel", "--output", "{tmp}/stream-cold.txt"]),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--skeleton-cache", "{tmp}/skel",
         "--output", "{tmp}/stream-warm.txt"]),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar", "--sweep",
         "--skeleton-cache", "{tmp}/skel", "--output", "{tmp}/columnar-warm.txt"]),
    # checkpoints: damaged on disk, then resumed (quarantine and re-scan)
    (0, ["campaign", "--size", SIZE, "--shard-size", "100", "--checkpoint-dir", "{tmp}/ckpt",
         "--fault-plan", "{tmp}/damage.json", "--output", "{tmp}/damaged.txt"]),
    (0, ["campaign", "--size", SIZE, "--shard-size", "100", "--checkpoint-dir", "{tmp}/ckpt",
         "--resume", "--output", "{tmp}/resumed.txt"]),
    # worker faults: retried raise, killed worker, stalled shard, exhausted retries
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--fault-plan", "{tmp}/retry.json", "--output", "{tmp}/retry.txt"]),
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--fault-plan", "{tmp}/kill.json", "--output", "{tmp}/kill.txt"]),
    (0, ["campaign", "--size", "200", "--workers", "2", "--shard-size", "100",
         "--shard-timeout", "3", "--fault-plan", "{tmp}/stall.json",
         "--output", "{tmp}/stall.txt"]),
    (1, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--max-shard-retries", "2", "--checkpoint-dir", "{tmp}/ckpt-failed",
         "--fault-plan", "{tmp}/always.json", "--output", "{tmp}/failed.txt"]),
    # scenario grids: names, a JSON file, checkpoints, a warm cache, columnar
    (0, ["campaign", "--size", SIZE, "--scenario-grid", "baseline-2022,trimmed-chains",
         "--output", "{tmp}/grid", "--export-dir", "{tmp}/grid-csv", "--timings"]),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--scenario-grid",
         "{tmp}/grid.json", "--checkpoint-dir", "{tmp}/grid-ckpt",
         "--skeleton-cache", "{tmp}/skel"]),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--scenario-grid",
         "{tmp}/grid.json", "--checkpoint-dir", "{tmp}/grid-ckpt", "--resume",
         "--scan-backend", "columnar", "--output", "{tmp}/grid-resumed"]),
    (0, ["compare", "--size", SIZE, "--scenarios", "baseline-2022,universal-compression"]),
    (0, ["compare", "--size", SIZE, "--grid", "{tmp}/grid.json", "--scan-backend", "columnar",
         "--progress", "--skeleton-cache", "{tmp}/skel"]),
    (0, ["compare", "--size", "200", "--workers", "2"]),
    (0, ["scenarios"]),
    (0, ["scenarios", "--names"]),
    (0, ["scenarios", "--grid", "compression-adoption"]),
    (0, ["scenarios", "--grid", "{tmp}/grid.json"]),
    # the skeleton cache tools
    (0, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200", "--shards", "1"]),
    (0, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200"]),
    (0, ["skeletons", "stats", "{tmp}/skel-tool"]),
    (0, ["skeletons", "gc", "{tmp}/skel-tool", "--size", SIZE, "--seed", "2022"]),
    (0, ["skeletons", "gc", "{tmp}/skel-tool"]),
    (0, ["predict", "--chain", CHAIN]),
    (0, ["predict", "--chain", CHAIN, "--initial-size", "1252", "--compression", "brotli"]),
    (0, ["profiles"]),
    # inputs refused with exit 2
    (2, ["campaign", "--size", "0"]),
    (2, ["campaign", "--resume"]),
    (2, ["campaign", "--checkpoint-dir", "{tmp}/unused"]),
    (2, ["campaign", "--scenario", "no-such-scenario"]),
    (2, ["campaign", "--scenario-grid", "no-such-grid"]),
    (2, ["campaign", "--scenario-grid", "baseline-2022", "--scenario", "large-initials"]),
    (2, ["campaign", "--scenario-grid", "baseline-2022", "--sweep"]),
    (2, ["campaign", "--fault-plan", "{tmp}/bad-plan.json"]),
    (2, ["campaign", "--max-shard-retries", "0"]),
    (2, ["campaign", "--scan-backend", "vector"]),
    (2, ["campaign", "--output", "{tmp}/missing/report.txt"]),
    (2, ["campaign", "--export-dir", "{tmp}/not-a-dir"]),
    (2, ["campaign", "--skeleton-cache", "{tmp}/not-a-dir"]),
    (2, ["compare", "--grid", "what-ifs", "--scenarios", "baseline-2022"]),
    (2, ["compare", "--grid", "no-such-grid"]),
    (2, ["compare", "--scan-backend", "vector"]),
    (2, ["scenarios", "--grid", "no-such-grid"]),
    (2, ["skeletons", "stats", "{tmp}/no-such-cache"]),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--shards", "x"]),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200", "--shards", "5"]),
    (2, ["skeletons", "warm", "{tmp}/not-a-dir"]),
    (2, ["skeletons", "gc", "{tmp}/skel-tool", "--size", SIZE]),
    (2, ["predict", "--chain", "no-such-chain"]),
    (2, ["predict", "--chain", CHAIN, "--initial-size", "100"]),
]

#: Arguments of the example scripts (the rest run without any).
EXAMPLE_ARGS = {
    "full_evaluation.py": ["300", "{tmp}/full-evaluation.txt"],
    "quickstart.py": ["300"],
}

#: The child: installs the recorder, runs one invocation, writes the
#: ``[filename, first line]`` of every code object that started to
#: ``<out>/<pid>.json`` (workers on their way out, the parent at the end;
#: each invocation has its own ``<out>``, so a reused pid overwrites nothing).
CHILD = r"""
import json, os, runpy, sys, threading

out, target = sys.argv[1], sys.argv[2]
seen = {}

def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code

def dump():
    keys = sorted({(code.co_filename, code.co_firstlineno) for code in seen.values()})
    with open(os.path.join(out, f"{os.getpid()}.json"), "w") as handle:
        json.dump(keys, handle)

def forked():
    import multiprocessing.util
    seen.clear()
    multiprocessing.util.Finalize(None, dump, exitpriority=0)
    sys.setprofile(record)

os.register_at_fork(after_in_child=forked)
threading.setprofile(record)
sys.setprofile(record)
code = 0
try:
    if target == "-m":
        sys.argv = ["repro", *sys.argv[3:]]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        sys.argv = [target, *sys.argv[3:]]
        runpy.run_path(target, run_name="__main__")
except SystemExit as stop:
    code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    dump()
sys.exit(code)
"""


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, int, int]]:
    """``(file, first line) -> (module:qualname, first line, last line)``.

    The first line is the first decorator's, as on the code object.
    """
    functions: Dict[Tuple[str, int], Tuple[str, int, int]] = {}
    for directory, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module[: -len(".__init__")] if module.endswith(".__init__") else module
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = prefix + child.name
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        functions[(path, first)] = (
                            f"{module}:{qualname}", first, child.end_lineno
                        )
                        visit(child, qualname + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return functions


def invocations(tmp: str) -> List[Tuple[str, int, List[str]]]:
    """``(label, expected exit code, child argv)`` of the whole matrix."""
    runs = [
        (" ".join(argv), code, ["-m", *(arg.format(tmp=tmp) for arg in argv)])
        for code, argv in MATRIX
    ]
    for name in sorted(os.listdir(EXAMPLES)):
        if name.endswith(".py"):
            args = [arg.format(tmp=tmp) for arg in EXAMPLE_ARGS.get(name, [])]
            runs.append((f"examples/{name}", 0, [os.path.join(EXAMPLES, name), *args]))
    return runs


def record_matrix() -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run the matrix; the recorded ``(file, first line)`` keys and failures."""
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    env = dict(os.environ, PYTHONPATH=SRC)
    for knob in ("REPRO_SCAN_BACKEND", "REPRO_FAULT_PLAN"):
        env.pop(knob, None)
    with tempfile.TemporaryDirectory(prefix="repro-unreached-") as tmp:
        for name, content in INPUT_FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(content)
        recorded = os.path.join(tmp, "recorded")
        for number, (label, expected, argv) in enumerate(invocations(tmp)):
            out = os.path.join(recorded, str(number))
            os.makedirs(out)
            child = subprocess.run(
                [sys.executable, "-c", CHILD, out, *argv],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            if child.returncode != expected:
                tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                failures.append(
                    f"{label}: exit {child.returncode}, expected {expected}: {tail[0]}"
                )
        for directory, _, names in os.walk(recorded):
            for name in names:
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    reached.update((os.path.realpath(f), line) for f, line in json.load(handle))
    return reached, failures


def main() -> int:
    functions = defined_functions()
    reached, failures = record_matrix()
    unreached = sorted(
        spec for key, spec in functions.items()
        if (os.path.realpath(key[0]), key[1]) not in reached
    )
    lines = 0
    outer_end: Dict[str, int] = {}
    for qualname, first, last in sorted(unreached, key=lambda spec: (spec[0].split(":")[0], spec[1])):
        module = qualname.split(":")[0]
        if first > outer_end.get(module, 0):
            lines += last - first + 1
            outer_end[module] = last
    for qualname, _, _ in unreached:
        print(qualname)
    print(
        f"{len(unreached)} of {len(functions)} functions unreached "
        f"({lines} lines), ceiling {CEILING}"
    )
    for failure in failures:
        print(f"matrix: {failure}", file=sys.stderr)
    if failures:
        return 1
    if len(unreached) > CEILING:
        print(
            f"{len(unreached)} unreached functions exceed the ceiling of {CEILING}: "
            "reach or delete the new ones (the ceiling is only ever lowered)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
