"""Run ``repro.cli.main`` with a span recorded around each layer's functions.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python bench/traced_cli.py TRACE_DIR campaign --size 600 ...

Everything after ``TRACE_DIR`` is the ``repro`` command line.  The tracer
imports every ``repro`` module, then replaces each function named in
:data:`LAYERS` by a timing wrapper in *every* module namespace that bound it
(so names bound by ``from ... import`` and aliases are caught), and methods
on their classes.  Nothing under ``src/`` is modified.

Spans stay in memory per process as ``(target, parent, start_ns, end_ns,
self_ns, key)``; ``self_ns`` is the span's duration minus the time covered by
its child spans.  Forked workers inherit the wrappers; because pool workers
leave through ``os._exit`` (no ``atexit``), every process appends its spans
to ``TRACE_DIR/spans-<pid>.bin`` each time its outermost span closes and
then forgets them.  Each such batch starts with its outermost span, and
``parent`` indexes into the batch.  The main process also writes
``TRACE_DIR/meta.json``.  ``bench/run.py`` merges the files into the layer
table.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from array import array
from time import perf_counter_ns

#: Layer name -> the functions whose spans it owns (``module:qualname``).
#: Mostly public functions; the few private names are the only boundary of
#: their layer: ``_generate_shard_skeletons`` is the skeleton pass every
#: generation path calls (the skeleton store calls it directly),
#: ``_run_incomplete_handshake_stage`` is stage 5 of the eager path, and the
#: two ``_scan_and_summarize*`` functions are the per-shard worker entries.
LAYERS = {
    "cli.main": ("repro.cli:main",),
    "orchestrator.campaign": (
        "repro.scanners.orchestrator:MeasurementCampaign.run",
        "repro.scanners.orchestrator:run_grid_campaign",
        "repro.scanners.streaming:run_streaming_scan",
        "repro.scanners.streaming:run_streaming_grid_scan",
    ),
    "webpki.tranco": ("repro.webpki.tranco:generate_tranco_list",),
    "webpki.population": ("repro.webpki.population:generate_population",),
    "webpki.generate": (
        "repro.webpki.population:deployments_for_range",
        "repro.webpki.population:generate_shard",
        "repro.webpki.population:_generate_shard_skeletons",
    ),
    "webpki.materialize": (
        "repro.webpki.population:SkeletonShard.materialize",
        "repro.webpki.skeleton:ChainSpec.materialize",
    ),
    "x509.issue": ("repro.x509.issuance:issue_leaf_fast",),
    "x509.deferred_expand": ("repro.x509.issuance:expand_deferred_leaf_fields",),
    "skeleton_store.range": (
        "repro.scanners.skeleton_store:deployments_for_range",
        "repro.scanners.skeleton_store:skeletons_for_range",
        "repro.scanners.skeleton_store:SkeletonStore.load_or_generate",
    ),
    "skeleton_store.read": (
        "repro.scanners.skeleton_store:SkeletonStore.load",
        "repro.scanners.skeleton_store:decode_skeleton_file",
    ),
    "skeleton_store.write": ("repro.scanners.skeleton_store:SkeletonStore.save",),
    "scenarios.transform": ("repro.scenarios.spec:ScenarioSpec.transform_skeletons",),
    "columnar.kernel": ("repro.scanners.columnar:summarize_shard_columnar",),
    "tls.deflate": ("repro.tls.cert_compression:deflate_size",),
    "scanners.object_scan": (
        "repro.scanners.https_scanner:HttpsScanner.scan",
        "repro.scanners.quicreach:QuicReach.scan_many",
        "repro.scanners.quicreach:InitialSizeSweep.run",
        "repro.scanners.qscanner:QScanner.fetch_many",
        "repro.scanners.compression_scanner:CompressionScanner.scan_many",
    ),
    "streaming.reduce": (
        "repro.scanners.streaming:CampaignReducer.add",
        "repro.scanners.streaming:CampaignReducer.reduced_scan",
    ),
    "sharding.dispatch": ("repro.scanners.sharding:dispatch_with_retry",),
    "sharding.shard": (
        "repro.scanners.streaming:_scan_and_summarize",
        "repro.scanners.streaming:_scan_and_summarize_grid",
    ),
    "checkpoint.save": ("repro.scanners.checkpoint:CheckpointStore.save",),
    "orchestrator.stage5": (
        "repro.scanners.orchestrator:MeasurementCampaign.finalize_streaming",
        "repro.scanners.orchestrator:MeasurementCampaign._run_incomplete_handshake_stage",
        "repro.scanners.backscatter:simulate_spoofed_campaign",
        "repro.scanners.backscatter:BackscatterAnalyzer.analyze",
        "repro.scanners.zmap:ZmapScanner.probe_prefix",
    ),
    "analysis.report": ("repro.analysis.report:build_report",),
}

#: Every wrapped function, in span-id order.
TARGETS = tuple(target for targets in LAYERS.values() for target in targets)

#: Worker entries whose span records the shard index as its ``key``.
SHARD_TARGETS = frozenset(LAYERS["sharding.shard"])

#: Integers per span in the ``spans-<pid>.bin`` files.
SPAN_FIELDS = 6

# Per-process span state.  Cleared in place in forked children, so a worker
# never sees the spans its parent had open when it forked.
_spans: list = []
_open: list = []
_child_ns: list = []
_trace_dir = ""


def _wrap(original, target_id: int, shard_key: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        parent = _open[-1] if _open else -1
        key = args[0][0].index if shard_key else -1
        _spans.append(None)
        _open.append(index)
        _child_ns.append(0)
        start = perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            _open.pop()
            duration = end - start
            covered = _child_ns.pop()
            if _child_ns:
                _child_ns[-1] += duration
            _spans[index] = (target_id, parent, start, end, duration - covered, key)
            if not _open:
                _flush()

    return wrapper


def _flush() -> None:
    """Append the finished batch of spans to this process's file."""
    packed = array("q", [value for span in _spans for value in span])
    _spans.clear()
    with open(os.path.join(_trace_dir, f"spans-{os.getpid()}.bin"), "ab") as handle:
        packed.tofile(handle)


def _import_all_repro_modules() -> None:
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def install() -> None:
    """Wrap every target in every ``repro`` module namespace that bound it."""
    _import_all_repro_modules()
    modules = [
        module
        for name, module in sys.modules.items()
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for target_id, target in enumerate(TARGETS):
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        *class_path, attribute = qualname.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if class_path else getattr(owner, attribute)
        wrapper = _wrap(original, target_id, target in SHARD_TARGETS)
        if class_path:
            setattr(owner, attribute, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


def main(argv) -> int:
    global _trace_dir
    _trace_dir = argv[0]
    os.makedirs(_trace_dir, exist_ok=True)
    install()
    for state in (_spans, _open, _child_ns):
        # Builtin hooks only: a Python function registered here keeps its
        # module's globals alive past interpreter finalization, which slows
        # teardown by ~0.2 s and would show up as tracing overhead.
        os.register_at_fork(after_in_child=state.clear)
    from repro.cli import main as cli_main
    from repro.quic.server import flight_plan_cache_info

    code = cli_main(argv[1:])
    cache = flight_plan_cache_info()
    with open(os.path.join(_trace_dir, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "pid": os.getpid(),
                "targets": TARGETS,
                "flight_cache": {"hits": cache.hits, "misses": cache.misses},
            },
            handle,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
