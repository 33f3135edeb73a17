"""Command-line interface.

``python -m repro`` exposes the things a user most often wants without
writing code:

* ``campaign`` — run the full measurement campaign (optionally under a
  what-if ``--scenario``) and print (or write) the evaluation report,
* ``compare`` — run a scenario grid and print one outcome table (deltas vs
  the first member),
* ``scenarios`` — list the built-in what-if scenarios,
* ``skeletons`` — pre-warm, inspect or garbage-collect the persistent
  skeleton-shard cache used by ``--skeleton-cache``,
* ``predict`` — predict the handshake outcome for a CA chain profile and a
  client Initial size,
* ``profiles`` — list the built-in CA chain profiles and server behaviours.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence

from .core import predict_handshake, required_initial_size
from .core.limits import MAX_INITIAL_SIZE_AT_MTU_1500, MIN_INITIAL_SIZE
from .errors import InputError, ReproError
from .quic.profiles import BUILTIN_PROFILES
from .scenarios import BUILTIN_SCENARIOS, load_scenario
from .tls.cert_compression import CertificateCompressionAlgorithm

# The measurement pipeline (scanners, webpki, analysis) is imported inside
# the subcommands that run it, so 'scenarios', 'predict' and 'profiles'
# start without loading it.


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def positive_int(text: str) -> int:
    """``argparse`` type for counts that must be at least 1."""
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """``argparse`` type for a timeout: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    # Written so NaN fails too.
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def shard_indices(text: str) -> List[int]:
    """``argparse`` type for ``I[,J...]``: sorted, each index once."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("must name at least one shard index")
    return sorted({_int(part) for part in parts})


def non_empty(text: str) -> str:
    """``argparse`` type for a name that must not be blank."""
    if not text.strip():
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def initial_size(text: str) -> int:
    """``argparse`` type for a client Initial size the wire model covers."""
    value = _int(text)
    if not MIN_INITIAL_SIZE <= value <= MAX_INITIAL_SIZE_AT_MTU_1500:
        raise argparse.ArgumentTypeError(
            f"must be within [{MIN_INITIAL_SIZE}, {MAX_INITIAL_SIZE_AT_MTU_1500}] bytes "
            f"(RFC 9000 minimum to the MTU-1500 UDP payload), got {value}"
        )
    return value


def _probe_writable(path: str, directory: bool) -> None:
    """Raise ``OSError`` when the run could not write its output to ``path``.

    Probed before any generation by creating and deleting a throwaway file
    where the output will go.  A report file needs an existing parent
    directory (the atomic write does not create one), so a missing one fails
    here and nothing is created; a directory output (``--export-dir``, a
    grid's ``--output``) is created for the probe and removed again, so a run
    that fails later leaves nothing behind.
    """
    created = []
    if directory:
        missing = os.path.abspath(path)
        while not os.path.lexists(missing):
            created.append(missing)
            missing = os.path.dirname(missing)
    elif os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    else:
        path = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(path):
            raise FileNotFoundError(errno.ENOENT, "parent directory does not exist", path)
    try:
        if created:
            os.makedirs(path)
        tempfile.TemporaryFile(dir=path).close()
    finally:
        for leftover in created:
            try:
                os.rmdir(leftover)
            except OSError:
                pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line (exit 2), without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message} (see '{self.prog} --help')\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'On the Interplay between TLS Certificates and QUIC Performance'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign = subparsers.add_parser("campaign", help="run the measurement campaign and print the report")
    campaign.set_defaults(run=_run_campaign)
    campaign.add_argument("--size", type=positive_int, default=3000, help="population size (default: 3000)")
    campaign.add_argument("--seed", type=int, default=2022, help="population seed (default: 2022)")
    campaign.add_argument("--sweep", action="store_true", help="also run the Figure 3 Initial-size sweep")
    campaign.add_argument("--output", type=str, default=None, help="write the report to this file")
    campaign.add_argument(
        "--export-dir", type=str, default=None,
        help="also export the report and per-figure CSV data series to this directory",
    )
    campaign.add_argument(
        "--workers", type=positive_int, default=None,
        help="scan shards in this many worker processes; implies --stream "
             "(default: single-process serial)",
    )
    campaign.add_argument(
        "--shard-size", type=positive_int, default=None,
        help="deployments per scan shard; implies --stream (default: 2048)",
    )
    campaign.add_argument(
        "--stream", action="store_true",
        help="streaming reduction pipeline: generate, scan and reduce shard by "
             "shard so parent memory stays bounded (1M-domain campaigns); "
             "reports are byte-identical to the serial path; implied by "
             "--workers, --shard-size and --scan-backend columnar",
    )
    campaign.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="persist each finished shard's summary to this directory "
             "(atomic, content-addressed, self-verifying); requires --stream",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="load valid checkpoints from --checkpoint-dir and dispatch only "
             "the missing shards; corrupt checkpoints are quarantined and "
             "re-scanned, and the finished report is byte-identical to an "
             "uninterrupted run",
    )
    campaign.add_argument(
        "--shard-timeout", type=positive_seconds, default=None, metavar="SECONDS",
        help="abandon and re-dispatch a shard that runs longer than this "
             "(multi-worker runs only)",
    )
    campaign.add_argument(
        "--max-shard-retries", type=positive_int, default=3, metavar="N",
        help="dispatch each shard at most N times before failing the run "
             "with a manifest of incomplete shards (default: 3)",
    )
    campaign.add_argument(
        "--fault-plan", type=str, default=None, metavar="FILE.json",
        help="arm a deterministic fault-injection plan (testing/CI; see "
             "repro.scanners.faults)",
    )
    campaign.add_argument(
        "--timings", action="store_true",
        help="print per-phase wall clock (generation / campaign / report) to "
             "stderr; bench/run.py --trace 1 breaks a run down layer by layer",
    )
    campaign.add_argument(
        "--scenario", type=non_empty, default=None, metavar="NAME|FILE.json",
        help="run the campaign under a what-if scenario: a built-in name "
             "(see 'repro scenarios') or a scenario JSON file",
    )
    campaign.add_argument(
        "--scenario-grid", type=non_empty, default=None, metavar="GRID|FILE.json",
        help="sweep a whole scenario grid in one shared-generation campaign "
             "(cross-scenario shard reuse): a built-in grid name, a grid JSON "
             "file, or a comma-separated scenario list; emits one report per "
             "member (with --output DIR, one <member>.report.txt each)",
    )
    campaign.add_argument(
        "--scan-backend", type=str, default=None, metavar="{object,columnar}",
        help="shard-scan implementation: 'object' (reference pipeline over "
             "real fabric objects) or 'columnar' (fused whole-shard "
             "arithmetic, byte-identical reports, ~2x faster scan+reduce; "
             "implies --stream); default: the REPRO_SCAN_BACKEND environment "
             "variable on streamed runs, else 'object'",
    )
    campaign.add_argument(
        "--skeleton-cache", type=str, default=None, metavar="DIR",
        help="persist generation's baseline skeleton shards in this directory "
             "and read them back on later runs (warm-start: generation "
             "becomes a verified disk read, reports stay byte-identical); "
             "composes with --stream, --checkpoint-dir/--resume, "
             "--scenario-grid and both scan backends; pre-warm or inspect "
             "with 'repro skeletons'",
    )

    compare = subparsers.add_parser(
        "compare",
        help="run a scenario grid over one population and print one outcome "
             "table, one row per member, deltas vs the first",
    )
    compare.set_defaults(run=_run_compare)
    compare.add_argument(
        "--scenarios", type=non_empty, default=None, metavar="NAME[,NAME...]",
        help="comma-separated scenario names or scenario JSON files "
             "(default: the 'what-ifs' grid, every built-in scenario with "
             "baseline first)",
    )
    compare.add_argument(
        "--grid", type=non_empty, default=None, metavar="GRID|FILE.json",
        help="a built-in grid name (e.g. 'compression-adoption'), a grid "
             "JSON file, or a comma-separated scenario list",
    )
    compare.add_argument("--size", type=positive_int, default=1200, help="population size (default: 1200)")
    compare.add_argument("--seed", type=int, default=2022, help="population seed (default: 2022)")
    compare.add_argument(
        "--workers", type=positive_int, default=None,
        help="scan shards in this many worker processes (default: 1)",
    )
    compare.add_argument(
        "--shard-size", type=positive_int, default=None,
        help="deployments per scan shard (default: 2048)",
    )
    compare.add_argument(
        "--scan-backend", type=str, default=None, metavar="{object,columnar}",
        help="shard-scan implementation (see 'repro campaign --help')",
    )
    compare.add_argument(
        "--progress", action="store_true",
        help="print per-shard progress lines to stderr while the sweep runs",
    )
    compare.add_argument(
        "--skeleton-cache", type=str, default=None, metavar="DIR",
        help="read/write the persistent skeleton-shard cache in DIR "
             "(see 'repro campaign --help')",
    )

    scenarios = subparsers.add_parser("scenarios", help="list the built-in what-if scenarios")
    scenarios.set_defaults(run=_run_scenarios)
    scenarios.add_argument(
        "--names", action="store_true",
        help="print bare scenario names only (one per line, for scripting)",
    )
    scenarios.add_argument(
        "--grid", type=non_empty, default=None, metavar="GRID|FILE.json",
        help="dry-run a scenario grid instead: expand it and list every "
             "member with its fingerprint (nothing is generated or scanned)",
    )

    skeletons = subparsers.add_parser(
        "skeletons",
        help="manage the persistent skeleton-shard cache (pre-warm, inspect, gc)",
    )
    skeletons.set_defaults(run=_run_skeletons)
    skeleton_actions = skeletons.add_subparsers(dest="action", required=True)
    skel_warm = skeleton_actions.add_parser(
        "warm",
        help="pre-generate every baseline shard of a population into the cache "
             "so later campaigns warm-start",
    )
    skel_warm.add_argument("directory", help="cache directory (created if missing)")
    skel_warm.add_argument("--size", type=positive_int, default=3000, help="population size (default: 3000)")
    skel_warm.add_argument("--seed", type=int, default=2022, help="population seed (default: 2022)")
    skel_warm.add_argument(
        "--shards", type=shard_indices, default=None, metavar="I[,J...]",
        help="warm only these generation-shard indices (default: all)",
    )
    skel_stats = skeleton_actions.add_parser(
        "stats", help="show entry count, bytes, quarantine count and binding"
    )
    skel_stats.add_argument("directory", help="cache directory")
    skel_gc = skeleton_actions.add_parser(
        "gc",
        help="empty the quarantine; with --size/--seed also drop entries that "
             "are not content addresses of that population",
    )
    skel_gc.add_argument("directory", help="cache directory")
    skel_gc.add_argument(
        "--size", type=positive_int, default=None,
        help="population size whose entries to keep (with --seed)",
    )
    skel_gc.add_argument(
        "--seed", type=int, default=None,
        help="population seed whose entries to keep (with --size)",
    )

    predict = subparsers.add_parser("predict", help="predict the handshake class for a chain profile")
    predict.set_defaults(run=_run_predict)
    predict.add_argument("--chain", required=True, help="CA chain profile label (see 'profiles')")
    predict.add_argument("--domain", default="example.org", help="domain to issue the leaf for")
    predict.add_argument(
        "--initial-size", type=initial_size, default=1357,
        help=f"client Initial size in bytes, {MIN_INITIAL_SIZE} to {MAX_INITIAL_SIZE_AT_MTU_1500} "
             "(default: 1357)",
    )
    predict.add_argument("--compression", choices=["none", "zlib", "brotli", "zstd"], default="none")

    profiles = subparsers.add_parser("profiles", help="list CA chain profiles and server behaviour profiles")
    profiles.set_defaults(run=_run_profiles)
    return parser


def _stderr_line(line: str) -> None:
    print(line, file=sys.stderr)


def _member_path(base: str, name: Optional[str], suffix: str = "") -> str:
    """``base`` itself for a single campaign, ``base/<name><suffix>`` for a grid member."""
    return base if name is None else os.path.join(base, name + suffix)


def _run_campaign(args: argparse.Namespace) -> int:
    """``campaign``: one report, or with ``--scenario-grid`` one generation and
    one report per member.

    The grid path is always streamed and checkpoints at ``(shard, scenario)``
    granularity.  Its ``--output`` names a directory holding one
    ``<member>.report.txt`` per member, and ``--export-dir`` exports each
    member's CSV bundle into ``<dir>/<member>/``.
    """
    import time

    from .analysis.report import build_report
    from .scanners import MeasurementCampaign
    from .scanners.columnar import resolve_scan_backend
    from .scanners.faults import load_fault_plan
    from .scanners.sharding import RetryPolicy
    from .webpki import PopulationConfig

    # The flags that shape the shard dispatch exist on the streamed pipeline
    # only, so they select it; reports are byte-identical either way.
    args.stream = args.stream or (
        args.workers is not None
        or args.shard_size is not None
        or args.scan_backend == "columnar"
    )
    for refused, message in (
        (args.scenario_grid and args.scenario,
         "--scenario-grid and --scenario are mutually exclusive; put the scenario in the grid"),
        (args.scenario_grid and args.sweep,
         "--sweep is per-campaign discovery and cannot ride a grid sweep; "
         "run it against a single scenario"),
        (args.resume and not args.checkpoint_dir,
         "--resume needs --checkpoint-dir DIR to resume from"),
        (args.checkpoint_dir and not args.stream and not args.scenario_grid,
         "checkpointing rides the streaming pipeline; add --stream"),
    ):
        if refused:
            raise InputError(message)
    fault_plan = load_fault_plan(args.fault_plan)
    retry_policy = RetryPolicy(
        max_attempts=args.max_shard_retries, shard_timeout=args.shard_timeout
    )
    # Validates the explicit flag and (when no flag is given) the
    # REPRO_SCAN_BACKEND environment knob, before any generation work.
    resolve_scan_backend(args.scan_backend)
    # Checked before any generation, so a typo does not cost a whole run.
    for flag, path, directory in (
        ("--output", args.output, bool(args.scenario_grid)),
        ("--export-dir", args.export_dir, True),
    ):
        try:
            if path:
                _probe_writable(path, directory)
        except OSError as error:
            raise InputError(f"cannot write {flag} {path}: {error.strerror or error}") from None

    config = PopulationConfig(size=args.size, seed=args.seed)
    if args.scenario_grid:
        from .scanners.orchestrator import run_grid_campaign
        from .scenarios import load_grid

        grid = load_grid(args.scenario_grid)
        t0 = time.perf_counter()
        results = run_grid_campaign(
            grid,
            config=config,
            workers=args.workers,
            shard_size=args.shard_size,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            scan_backend=args.scan_backend,
            progress=_stderr_line,
            skeleton_cache_dir=args.skeleton_cache,
        )
        phases = [(f"grid campaign ({len(grid)} scenarios):", time.perf_counter() - t0)]
        names = grid.member_names
    else:
        if args.scenario:
            config = load_scenario(args.scenario).population_config(base=config)
        t0 = time.perf_counter()
        # A serial campaign generates its population here (through the
        # skeleton cache when one is given); a streamed one regenerates it
        # shard by shard inside run(), where bench/run.py's layer table splits
        # it out.  REPRO_SCAN_BACKEND applies to streamed runs only, so it
        # cannot change the serial object reference.
        campaign = MeasurementCampaign(
            population_config=config,
            run_sweep=args.sweep,
            workers=args.workers,
            shard_size=args.shard_size,
            stream=args.stream,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            scan_backend=args.scan_backend,
            skeleton_cache_dir=args.skeleton_cache,
        )
        t1 = time.perf_counter()
        results = {None: campaign.run()}
        phases = [("population generation:", t1 - t0), ("campaign:", time.perf_counter() - t1)]
        names = [None]
    t2 = time.perf_counter()
    reports = {name: build_report(results[name], include_sweep=args.sweep) for name in names}
    phases.append(("reports:" if args.scenario_grid else "report:", time.perf_counter() - t2))
    if args.timings:
        for label, seconds in phases:
            _stderr_line(f"{label:<22} {seconds:8.2f} s")
    if args.output:
        from .core.ioutil import atomic_write_text

        if args.scenario_grid:
            os.makedirs(args.output, exist_ok=True)
        for name, report in reports.items():
            atomic_write_text(_member_path(args.output, name, ".report.txt"), report.text + "\n")
        print(
            f"{len(reports)} reports written to {args.output}"
            if args.scenario_grid
            else f"report written to {args.output}"
        )
    else:
        for index, (name, report) in enumerate(reports.items()):
            if index:
                print()
            if name is not None:
                print(f"=== scenario: {name} ===")
            print(report.text)
    if args.export_dir:
        from .analysis.export import export_evaluation

        exported = sum(
            export_evaluation(
                results[name], _member_path(args.export_dir, name), report
            ).file_count
            for name, report in reports.items()
        )
        print(f"{exported} files exported to {args.export_dir}")
    return 0


def _run_predict(args: argparse.Namespace) -> int:
    from .x509.ca import default_hierarchy

    hierarchy = default_hierarchy()
    if args.chain not in hierarchy.profiles:
        raise InputError(f"unknown chain profile: {args.chain!r} (see 'repro profiles')")
    chain = hierarchy.profiles[args.chain].issue(args.domain)
    compression = None
    if args.compression != "none":
        compression = {
            "zlib": CertificateCompressionAlgorithm.ZLIB,
            "brotli": CertificateCompressionAlgorithm.BROTLI,
            "zstd": CertificateCompressionAlgorithm.ZSTD,
        }[args.compression]
    prediction = predict_handshake(chain, args.initial_size, compression=compression)
    needed = required_initial_size(chain, compression)
    print(f"chain profile:       {args.chain}")
    print(f"delivered chain:     {chain.total_size} bytes over {chain.depth} certificates")
    print(f"TLS first flight:    {prediction.tls_flight_size} bytes")
    print(f"estimated wire size: {prediction.estimated_first_flight_bytes} bytes")
    print(f"amplification budget:{prediction.amplification_budget} bytes (3 x {args.initial_size})")
    print(f"predicted class:     {prediction.predicted_class.value}")
    if needed is None:
        print("smallest 1-RTT Initial: none (the flight cannot fit below the MTU-limited budget)")
    else:
        print(f"smallest 1-RTT Initial: {needed} bytes")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from .scanners.columnar import resolve_scan_backend
    from .scenarios import compare_grid, load_grid
    from .scenarios.grid import scenario_list_grid

    if args.grid and args.scenarios:
        raise InputError(
            "--grid and --scenarios are mutually exclusive; a "
            "comma-separated list works as a --grid spec too"
        )
    resolve_scan_backend(args.scan_backend)
    grid = (
        scenario_list_grid(args.scenarios)
        if args.scenarios
        else load_grid(args.grid or "what-ifs")
    )
    table = compare_grid(
        grid,
        size=args.size,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
        scan_backend=args.scan_backend,
        progress=_stderr_line if args.progress else None,
        skeleton_cache_dir=args.skeleton_cache,
    )
    print(table.render_text())
    return 0


def _run_skeletons(args: argparse.Namespace) -> int:
    from .scanners.skeleton_store import SkeletonStore, warm
    from .webpki import PopulationConfig

    if args.action == "warm":
        # warm() checks the indices before it creates the directory, so a
        # bad index creates nothing.
        config = PopulationConfig(size=args.size, seed=args.seed)
        hits, misses = warm(args.directory, config, shard_indices=args.shards)
        print(
            f"warmed {hits + misses} shard(s) for size={args.size} seed={args.seed}: "
            f"{misses} generated, {hits} already cached"
        )
        return 0
    if args.action == "gc" and (args.size is None) != (args.seed is None):
        raise InputError("gc needs --size and --seed together (or neither)")
    if not os.path.isdir(args.directory):
        # Only warm fills a cache; inspecting a missing one creates nothing.
        raise InputError(f"no skeleton cache directory at {args.directory}")
    store = SkeletonStore(args.directory)
    if args.action == "stats":
        stats = store.stats()
        metadata = stats["metadata"] or {}
        print(f"directory:   {stats['directory']}")
        print(f"entries:     {stats['entries']}")
        print(f"bytes:       {stats['bytes']}")
        print(f"quarantined: {stats['quarantined']}")
        if metadata:
            print(
                "bound to:    seed={seed} size={size} "
                "generation_shard_size={generation_shard_size} ({format})".format(**metadata)
            )
        else:
            print("bound to:    (unbound — no skeletons.json yet)")
        return 0
    config = (
        PopulationConfig(size=args.size, seed=args.seed) if args.size is not None else None
    )
    removed = store.gc(config)
    print(
        f"removed {removed['stale']} stale entr{'y' if removed['stale'] == 1 else 'ies'}, "
        f"{removed['quarantined']} quarantined file(s)"
    )
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    if args.grid:
        from .scenarios import load_grid

        grid = load_grid(args.grid)
        print(f"Scenario grid '{grid.name}' — {len(grid)} members "
              f"(fingerprint {grid.fingerprint()[:16]}):")
        if grid.description:
            print(f"  {grid.description}")
        print()
        for spec in grid:
            print(f"  {spec.name:<40s} {spec.fingerprint()[:16]}")
        return 0
    if args.names:
        for name in BUILTIN_SCENARIOS:
            print(name)
        return 0
    print("Built-in what-if scenarios (run with 'repro campaign --scenario NAME',")
    print("diff several with 'repro compare'; a JSON file in the ScenarioSpec")
    print("shape works anywhere a name does):")
    print()
    for name, spec in BUILTIN_SCENARIOS.items():
        print(f"  {name:<24s} {spec.description}")
    return 0


def _run_profiles(_: argparse.Namespace) -> int:
    from .x509.ca import default_hierarchy

    hierarchy = default_hierarchy()
    print("CA chain profiles:")
    for label, profile in sorted(hierarchy.profiles.items()):
        print(f"  {label:<40s} parent chain {profile.parent_chain_size:>5d} B, "
              f"leaf {profile.leaf_key_algorithm.label}")
    print()
    print("Server behaviour profiles:")
    for profile in BUILTIN_PROFILES.values():
        print(f"  {profile.describe()}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``repro`` command and return its exit code.

    The one place a failure becomes an exit code: argparse refuses what an
    argument type can check (exit 2, ``repro <command>: error: ...``), and
    a :class:`~repro.errors.ReproError` raised by a command or the pipeline
    becomes one ``error: ...`` line and the error's ``exit_code`` (2 for a
    refused input or an unusable directory, 1 for shards that failed every
    retry).  Any other exception is a bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as error:
        _stderr_line(f"error: {error}")
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
