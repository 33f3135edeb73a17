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

Exits 1 when an invocation breaks its row (:func:`row_problem`: another
exit code, so it no longer takes the path it is listed for; a missing
message; an exit-2 run that prints more than its one ``error:`` line), or
when the count exceeds :data:`CEILING`.  The ceiling is a ratchet: lower
it when a change reaches or deletes more code, never raise it to pass; a
function kept off every user path (an oracle, say) is listed in the
"Oracles and off-path code" section of ``docs/ARCHITECTURE.md`` and
counted here.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
EXAMPLES = os.path.join(ROOT, "examples")

#: Unreached ``def``s allowed; never raised to make the check pass.
CEILING = 59

SIZE = "400"
CHAIN = "Let's Encrypt R3 + cross-signed X1"
INITIAL_SIZE_RANGE = "argument --initial-size: must be within [1200, 1472] bytes"
TIMEOUT = "argument --shard-timeout: must be positive and finite"
NO_SHARDS = "argument --shards: must name at least one shard index"

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
    "bad-scenario.json": "{not json",
    "bad-grid.json": "[1, 2",
    "field-grid.json": json.dumps({"name": "x", "scenarios": [{"nope": 1}]}),
    "not-a-dir": "",
}

#: ``(expected exit code, argv, text)`` of every recorded CLI invocation, in
#: order (later ones read what earlier ones wrote); ``{tmp}`` is the scratch
#: directory, and the run must print ``text`` (``""``: anything).  This is
#: the CLI's one table of refused inputs: every exit-2 row must print one
#: stderr line, the ``error:`` line holding ``text``, and nothing on stdout
#: (:func:`row_problem`).  ``tests/test_cli.py`` runs each exit-2 row in
#: process too, in a scratch directory of its own, and checks that it
#: creates nothing there and generates no population.
MATRIX: List[Tuple[int, List[str], str]] = [
    # serial campaign: sweep, CSV export, timings, scenarios, skeleton cache
    (0, ["campaign", "--size", SIZE, "--sweep", "--output", "{tmp}/serial.txt",
         "--export-dir", "{tmp}/serial-csv", "--timings"], ""),
    (0, ["campaign", "--size", SIZE, "--scenario", "large-initials"], ""),
    (0, ["campaign", "--size", SIZE, "--sweep", "--skeleton-cache", "{tmp}/skel-serial",
         "--output", "{tmp}/serial-cold.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--skeleton-cache", "{tmp}/skel-serial",
         "--output", "{tmp}/serial-warm.txt"], ""),
    # streamed campaign: in-process, workers, columnar, scenario file
    (0, ["campaign", "--size", SIZE, "--stream", "--sweep", "--output", "{tmp}/stream.txt",
         "--export-dir", "{tmp}/stream-csv"], ""),
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200", "--sweep",
         "--output", "{tmp}/workers.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar", "--shard-size", "200",
         "--sweep", "--output", "{tmp}/columnar.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--stream", "--scenario", "{tmp}/scenario.json",
         "--output", "{tmp}/scenario.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar",
         "--scenario", "{tmp}/scenario.json", "--output", "{tmp}/scenario-columnar.txt"], ""),
    # skeleton cache on the streamed path: cold with the sweep, warm on both backends
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--sweep",
         "--skeleton-cache", "{tmp}/skel", "--output", "{tmp}/stream-cold.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--skeleton-cache", "{tmp}/skel",
         "--output", "{tmp}/stream-warm.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar", "--sweep",
         "--skeleton-cache", "{tmp}/skel", "--output", "{tmp}/columnar-warm.txt"], ""),
    # ... and the benchmark's cold shape: columnar into an empty cache
    (0, ["campaign", "--size", SIZE, "--scan-backend", "columnar", "--shard-size", "200",
         "--skeleton-cache", "{tmp}/skel-columnar", "--output", "{tmp}/columnar-cold.txt"], ""),
    # checkpoints: damaged on disk, then resumed (quarantine and re-scan)
    (0, ["campaign", "--size", SIZE, "--shard-size", "100", "--checkpoint-dir", "{tmp}/ckpt",
         "--fault-plan", "{tmp}/damage.json", "--output", "{tmp}/damaged.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--shard-size", "100", "--checkpoint-dir", "{tmp}/ckpt",
         "--resume", "--output", "{tmp}/resumed.txt"], ""),
    # worker faults: retried raise, killed worker, stalled shard, exhausted retries
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--fault-plan", "{tmp}/retry.json", "--output", "{tmp}/retry.txt"], ""),
    (0, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--fault-plan", "{tmp}/kill.json", "--output", "{tmp}/kill.txt"], ""),
    (0, ["campaign", "--size", "200", "--workers", "2", "--shard-size", "100",
         "--shard-timeout", "3", "--fault-plan", "{tmp}/stall.json",
         "--output", "{tmp}/stall.txt"], ""),
    (1, ["campaign", "--size", SIZE, "--workers", "2", "--shard-size", "200",
         "--max-shard-retries", "2", "--checkpoint-dir", "{tmp}/ckpt-failed",
         "--fault-plan", "{tmp}/always.json", "--output", "{tmp}/failed.txt"],
     "manifest of incomplete shards: {tmp}/ckpt-failed/incomplete.json"),
    # scenario grids: names, a JSON file, checkpoints, a warm cache, columnar
    (0, ["campaign", "--size", SIZE, "--scenario-grid", "baseline-2022,trimmed-chains",
         "--output", "{tmp}/grid", "--export-dir", "{tmp}/grid-csv", "--timings"], ""),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--scenario-grid",
         "{tmp}/grid.json", "--checkpoint-dir", "{tmp}/grid-ckpt",
         "--skeleton-cache", "{tmp}/skel"], ""),
    (0, ["campaign", "--size", SIZE, "--shard-size", "200", "--scenario-grid",
         "{tmp}/grid.json", "--checkpoint-dir", "{tmp}/grid-ckpt", "--resume",
         "--scan-backend", "columnar", "--output", "{tmp}/grid-resumed"], ""),
    (0, ["compare", "--size", SIZE, "--scenarios", "baseline-2022,universal-compression"], ""),
    (0, ["compare", "--size", SIZE, "--grid", "{tmp}/grid.json", "--scan-backend", "columnar",
         "--progress", "--skeleton-cache", "{tmp}/skel"], ""),
    (0, ["compare", "--size", "200", "--workers", "2"], ""),
    (0, ["scenarios"], ""),
    (0, ["scenarios", "--names"], ""),
    (0, ["scenarios", "--grid", "compression-adoption"], ""),
    (0, ["scenarios", "--grid", "{tmp}/grid.json"], ""),
    # the skeleton cache tools
    (0, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200", "--shards", "1"], ""),
    (0, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200", "--shards", "0,0"],
     "warmed 1 shard(s)"),
    (0, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200"], ""),
    (0, ["skeletons", "stats", "{tmp}/skel-tool"], ""),
    (0, ["skeletons", "gc", "{tmp}/skel-tool", "--size", SIZE, "--seed", "2022"], ""),
    (0, ["skeletons", "gc", "{tmp}/skel-tool"], ""),
    (0, ["predict", "--chain", CHAIN], ""),
    (0, ["predict", "--chain", CHAIN, "--initial-size", "1252", "--compression", "brotli"], ""),
    (0, ["profiles"], ""),
    # inputs refused by an argument type (argparse: "repro <command>: error:")
    (2, ["campaign", "--size", "0"], "argument --size: must be a positive integer"),
    (2, ["campaign", "--size", "-5"], "argument --size: must be a positive integer"),
    (2, ["campaign", "--workers", "0"], "argument --workers: must be a positive integer"),
    (2, ["campaign", "--stream", "--workers", "0"], "argument --workers: must be a positive"),
    (2, ["campaign", "--shard-size", "0"], "argument --shard-size: must be a positive integer"),
    (2, ["campaign", "--stream", "--shard-size", "0"], "argument --shard-size: must be"),
    (2, ["campaign", "--max-shard-retries", "0"],
     "argument --max-shard-retries: must be a positive integer"),
    (2, ["campaign", "--stream", "--shard-timeout", "-1"], TIMEOUT),
    (2, ["campaign", "--stream", "--shard-timeout", "0"], TIMEOUT),
    (2, ["campaign", "--stream", "--shard-timeout", "nan"], TIMEOUT),
    (2, ["campaign", "--stream", "--shard-timeout", "inf"], TIMEOUT),
    (2, ["campaign", "--scenario", ""], "argument --scenario: must not be empty"),
    (2, ["campaign", "--scenario-grid", ""], "argument --scenario-grid: must not be empty"),
    (2, ["compare", "--size", "0"], "argument --size: must be a positive integer"),
    (2, ["compare", "--workers", "0"], "argument --workers: must be a positive integer"),
    (2, ["compare", "--shard-size", "0"], "argument --shard-size: must be a positive integer"),
    (2, ["compare", "--scenarios", " "], "argument --scenarios: must not be empty"),
    (2, ["compare", "--grid", ""], "argument --grid: must not be empty"),
    (2, ["scenarios", "--grid", ""], "argument --grid: must not be empty"),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "0"], "argument --size: must be"),
    (2, ["skeletons", "gc", "{tmp}/skel-tool", "--size", "0"], "argument --size: must be"),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--shards", "x"],
     "argument --shards: invalid int value: 'x'"),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--shards", ","], NO_SHARDS),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--shards", " "], NO_SHARDS),
    (2, ["predict", "--chain", CHAIN, "--initial-size", "100"], INITIAL_SIZE_RANGE),
    (2, ["predict", "--chain", CHAIN, "--initial-size", "0"], INITIAL_SIZE_RANGE),
    (2, ["predict", "--chain", CHAIN, "--initial-size", "1199"], INITIAL_SIZE_RANGE),
    (2, ["predict", "--chain", CHAIN, "--initial-size", "1473"], INITIAL_SIZE_RANGE),
    # inputs the commands or the pipeline refuse (repro.cli.main: "error:")
    (2, ["campaign", "--resume"], "--resume needs --checkpoint-dir"),
    (2, ["campaign", "--checkpoint-dir", "{tmp}/unused"], "checkpointing rides the streaming"),
    (2, ["campaign", "--scenario-grid", "baseline-2022", "--scenario", "large-initials"],
     "--scenario-grid and --scenario are mutually exclusive"),
    (2, ["campaign", "--scenario-grid", "baseline-2022", "--sweep"],
     "--sweep is per-campaign discovery"),
    (2, ["campaign", "--scenario", "no-such-scenario"],
     "unknown scenario 'no-such-scenario': not a built-in (baseline-2022, "),
    (2, ["campaign", "--scenario", "{tmp}/bad-scenario.json"], "not valid JSON"),
    (2, ["campaign", "--scenario-grid", "no-such-grid"],
     "unknown scenario grid 'no-such-grid': not a built-in grid (compression-adoption, "),
    (2, ["campaign", "--fault-plan", "{tmp}/bad-plan.json"], "unknown worker fault kind"),
    (2, ["campaign", "--fault-plan", "{tmp}/absent.json"], "cannot read fault plan"),
    (2, ["campaign", "--scan-backend", "vector"],
     "unknown scan backend 'vector' (choose from: object, columnar)"),
    (2, ["campaign", "--output", "{tmp}/missing/report.txt"],
     "cannot write --output {tmp}/missing/report.txt"),
    (2, ["campaign", "--output", "{tmp}/not-a-dir/r.txt"], "cannot write --output {tmp}/not-a"),
    (2, ["campaign", "--stream", "--output", "{tmp}/not-a-dir/r.txt"],
     "cannot write --output {tmp}/not-a-dir"),
    (2, ["campaign", "--export-dir", "{tmp}/not-a-dir"], "cannot write --export-dir {tmp}/not"),
    (2, ["campaign", "--export-dir", "{tmp}/not-a-dir/sub"],
     "cannot write --export-dir {tmp}/not-a-dir/sub"),
    (2, ["campaign", "--stream", "--export-dir", "{tmp}/not-a-dir/sub"],
     "cannot write --export-dir {tmp}/not-a-dir/sub"),
    (2, ["campaign", "--scenario-grid", "what-ifs", "--output", "{tmp}/not-a-dir/sub"],
     "cannot write --output {tmp}/not-a-dir/sub"),
    (2, ["campaign", "--scenario-grid", "what-ifs", "--export-dir", "{tmp}/not-a-dir/sub"],
     "cannot write --export-dir {tmp}/not-a-dir/sub"),
    (2, ["campaign", "--skeleton-cache", "{tmp}/not-a-dir"],
     "skeleton cache directory '{tmp}/not-a-dir' cannot be created"),
    (2, ["campaign", "--skeleton-cache", "{tmp}/not-a-dir/sub"],
     "skeleton cache directory '{tmp}/not-a-dir/sub' cannot be created"),
    (2, ["campaign", "--stream", "--skeleton-cache", "{tmp}/not-a-dir/sub"],
     "skeleton cache directory '{tmp}/not-a-dir/sub' cannot be created"),
    (2, ["campaign", "--scenario-grid", "what-ifs", "--skeleton-cache", "{tmp}/not-a-dir/sub"],
     "skeleton cache directory '{tmp}/not-a-dir/sub' cannot be created"),
    (2, ["campaign", "--stream", "--checkpoint-dir", "{tmp}/not-a-dir/sub"],
     "checkpoint directory '{tmp}/not-a-dir/sub' cannot be created"),
    (2, ["compare", "--grid", "what-ifs", "--scenarios", "baseline-2022"],
     "--grid and --scenarios are mutually exclusive"),
    (2, ["compare", "--grid", "no-such-grid"], "unknown scenario grid 'no-such-grid'"),
    (2, ["compare", "--grid", "{tmp}/field-grid.json"], "unknown scenario field"),
    (2, ["compare", "--scenarios", "no-such-scenario"], "unknown scenario 'no-such-scenario'"),
    (2, ["compare", "--scan-backend", "vector"], "unknown scan backend 'vector'"),
    (2, ["scenarios", "--grid", "no-such-grid"], "unknown scenario grid 'no-such-grid'"),
    (2, ["scenarios", "--grid", "{tmp}/bad-grid.json"], "not valid JSON"),
    (2, ["skeletons", "stats", "{tmp}/no-such-cache"], "no skeleton cache directory at {tmp}/no-"),
    (2, ["skeletons", "gc", "{tmp}/no-such-cache"], "no skeleton cache directory at {tmp}/no-"),
    (2, ["skeletons", "gc", "{tmp}/skel-tool", "--size", SIZE], "gc needs --size and --seed"),
    (2, ["skeletons", "warm", "{tmp}/skel-tool", "--size", "1200", "--shards", "5"],
     "shard index 5 is out of range"),
    (2, ["skeletons", "warm", "{tmp}/skel-small", "--size", "50", "--shards", "-1"],
     "shard index -1 is out of range"),
    (2, ["skeletons", "warm", "{tmp}/skel-small", "--size", "50", "--shards", "1"],
     "shard index 1 is out of range: a 50-domain population has generation shards 0..0"),
    (2, ["skeletons", "warm", "{tmp}/not-a-dir"],
     "skeleton cache directory '{tmp}/not-a-dir' cannot be created"),
    (2, ["skeletons", "warm", "{tmp}/not-a-dir/sub"],
     "skeleton cache directory '{tmp}/not-a-dir/sub' cannot be created"),
    (2, ["predict", "--chain", "no-such-chain"], "unknown chain profile: 'no-such-chain'"),
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


#: Environment knobs that would change what a row runs; unset for every run.
ENV_KNOBS = ("REPRO_SCAN_BACKEND", "REPRO_FAULT_PLAN")

#: The start of an exit-2 line: argparse's ``repro <command>: error:`` or
#: ``repro.cli.main``'s ``error:``.
REFUSAL = re.compile(r"(repro( [a-z]+)+: )?error: ")


def write_input_files(tmp: str) -> None:
    for name, content in INPUT_FILES.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
            handle.write(content)


def row_problem(expected: int, text: str, code: int, stdout: str, stderr: str) -> Optional[str]:
    """Why one run broke its matrix row (``text`` already formatted), or ``None``.

    The run must exit with the row's code and print ``text``.  An exit-2 run
    must print nothing on stdout and one stderr line, its error line (so no
    traceback either).
    """
    last = (stderr.strip().splitlines() or ["(no stderr)"])[-1]
    if code != expected:
        return f"exit {code}, expected {expected}: {last}"
    if text not in stdout + stderr:
        return f"printed no {text!r}: {last}"
    if expected == 2 and (stdout or stderr.count("\n") != 1 or not REFUSAL.match(stderr)):
        return f"not one error line: stdout {stdout[:80]!r}, stderr {stderr[:300]!r}"
    return None


def invocations(tmp: str) -> List[Tuple[str, int, str, List[str]]]:
    """``(label, expected exit code, text, child argv)`` of the whole matrix."""
    runs = [
        (" ".join(argv), code, text.format(tmp=tmp),
         ["-m", *(arg.format(tmp=tmp) for arg in argv)])
        for code, argv, text in MATRIX
    ]
    for name in sorted(os.listdir(EXAMPLES)):
        if name.endswith(".py"):
            args = [arg.format(tmp=tmp) for arg in EXAMPLE_ARGS.get(name, [])]
            runs.append((f"examples/{name}", 0, "", [os.path.join(EXAMPLES, name), *args]))
    return runs


def record_matrix() -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run the matrix; the recorded ``(file, first line)`` keys and failures."""
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    env = dict(os.environ, PYTHONPATH=SRC)
    for knob in ENV_KNOBS:
        env.pop(knob, None)
    with tempfile.TemporaryDirectory(prefix="repro-unreached-") as tmp:
        write_input_files(tmp)
        recorded = os.path.join(tmp, "recorded")
        for number, (label, expected, text, argv) in enumerate(invocations(tmp)):
            out = os.path.join(recorded, str(number))
            os.makedirs(out)
            child = subprocess.run(
                [sys.executable, "-c", CHILD, out, *argv],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            problem = row_problem(expected, text, child.returncode, child.stdout, child.stderr)
            if problem:
                failures.append(f"{label}: {problem}")
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
