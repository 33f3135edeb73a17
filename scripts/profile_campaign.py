#!/usr/bin/env python
"""Profile the benchmark measurement campaign.

Two modes:

* default — run the 2,500-domain campaign of ``benchmarks/conftest.py``
  (sweep enabled) plus the full report under ``cProfile`` and print the top
  cumulative entries, so perf PRs can ship before/after evidence gathered the
  same way.
* ``--phases`` — drive the streaming pipeline shard by shard with a stopwatch
  around each stage and print (or, with ``--json``, write to
  ``BENCH_campaign.json``) a per-phase wall-clock breakdown:
  generation / scan / reduce / report, plus the skeleton-pass cost of the
  sweep discovery pass.  This file seeds the repo's perf trajectory; CI
  uploads it as a per-PR artifact.

Usage::

    PYTHONPATH=src python scripts/profile_campaign.py [--size 2500] [--top 25]
                                                      [--sort cumulative|tottime]
                                                      [--skip-report]
    PYTHONPATH=src python scripts/profile_campaign.py --phases [--size 2500]
                                                      [--json [PATH]]
    PYTHONPATH=src python scripts/profile_campaign.py --phases \
        --scenario-grid what-ifs   # grid sweep vs N independent campaigns
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import pstats
import sys
import time


DEFAULT_JSON_PATH = "BENCH_campaign.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2500, help="population size")
    parser.add_argument("--seed", type=int, default=2022, help="population seed")
    parser.add_argument("--top", type=int, default=25, help="profile rows to print")
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative"
    )
    parser.add_argument(
        "--skip-report", action="store_true", help="profile the campaign only"
    )
    parser.add_argument(
        "--phases", action="store_true",
        help="per-stage wall-clock breakdown (generation / scan / reduce / report) "
             "instead of a cProfile run",
    )
    parser.add_argument(
        "--json", nargs="?", const=DEFAULT_JSON_PATH, default=None, metavar="PATH",
        help=f"with --phases: also write the breakdown as JSON "
             f"(default path: {DEFAULT_JSON_PATH})",
    )
    parser.add_argument(
        "--shard-size", type=int, default=None,
        help="with --phases: deployments per shard (default: 2048)",
    )
    parser.add_argument(
        "--checkpoint-dir", nargs="?", const="", default=None, metavar="DIR",
        help="with --phases: persist every shard summary while timing the "
             "writes as a separate 'checkpoint' phase (no DIR: a temporary "
             "directory, discarded afterwards)",
    )
    parser.add_argument(
        "--scan-backend", choices=("object", "columnar"), default="object",
        help="with --phases: shard-scan implementation to time (columnar "
             "fuses scan+summarise, so its whole kernel is timed as 'scan' "
             "and only the reducer fold as 'reduce')",
    )
    parser.add_argument(
        "--skeleton-cache", nargs="?", const="", default=None, metavar="DIR",
        help="with --phases: also time generation through the persistent "
             "skeleton store — one cold pass that populates the cache and a "
             "warm pass that replays it from disk (no DIR: a temporary "
             "directory, discarded afterwards); with --json the numbers land "
             "in a 'skeleton_cache' section",
    )
    parser.add_argument(
        "--scenario-grid", type=str, default=None, metavar="GRID",
        help="with --phases: also profile a cross-scenario grid sweep "
             "(built-in grid name, grid JSON file, or comma-separated "
             "scenario list) against N independent campaigns and report the "
             "per-phase amortization; with --json the numbers land in a "
             "'scenario_sweep' section",
    )
    return parser


def profile_grid_sweep(args: argparse.Namespace) -> dict:
    """Time an N-scenario grid sweep against N independent campaigns.

    The grid pass mirrors the shard visit
    (:func:`repro.scanners.streaming._summarize_visit`) with a stopwatch around each stage: *generation* is the once-per-shard
    skeleton pass plus every member's transform+materialisation (sharing one
    chain cache), *scan* and *reduce* run once per ``(shard, scenario)`` pair.
    The independent reference runs each member as its own streamed campaign,
    exactly what ``repro compare`` cost before grids existed.
    """
    import dataclasses

    from repro.analysis.report import build_report
    from repro.scanners.orchestrator import MeasurementCampaign
    from repro.scanners.sharding import DEFAULT_SHARD_SIZE, plan_shards, scan_shard
    from repro.scanners.streaming import (
        CampaignReducer,
        ReductionSpec,
        summarize_shard,
    )
    from repro.scenarios import load_grid
    from repro.webpki.population import PopulationConfig, deployments_for_range
    from repro.x509.ca import default_hierarchy

    grid = load_grid(args.scenario_grid)
    config = PopulationConfig(size=args.size, seed=args.seed)
    shard_size = args.shard_size or DEFAULT_SHARD_SIZE
    spec = ReductionSpec()
    columnar = args.scan_backend == "columnar"
    if columnar:
        from repro.scanners.columnar import summarize_shard_columnar
    hierarchy = default_hierarchy()
    member_configs = {
        scenario.name: scenario.population_config(base=config) for scenario in grid
    }

    # Independent reference: one full streamed campaign (report included)
    # per member, exactly the pre-grid cost of an N-scenario comparison.
    t0 = time.perf_counter()
    for scenario in grid:
        results = MeasurementCampaign(
            population_config=member_configs[scenario.name],
            stream=True,
            shard_size=shard_size,
            scan_backend=args.scan_backend,
        ).run()
        build_report(results, include_sweep=False)
    independent_total = time.perf_counter() - t0

    # Grid sweep with per-phase stopwatches.
    generation = scan_seconds = reduce_seconds = 0.0
    reducers = {
        scenario.name: CampaignReducer(spec=spec, run_sweep=False) for scenario in grid
    }
    total_start = time.perf_counter()
    shards = list(plan_shards(config.size, shard_size))
    for shard in shards:
        chain_cache: dict = {}
        groups: dict = {}
        for scenario in grid:
            base_config = dataclasses.replace(
                member_configs[scenario.name], scenario=None
            )
            groups.setdefault(base_config, []).append(scenario)
        for base_config, members in groups.items():
            t0 = time.perf_counter()
            skeletons = deployments_for_range(
                base_config, shard.start, shard.stop, skeleton=True
            )
            generation += time.perf_counter() - t0
            for scenario in members:
                member_task = _member_task(
                    shard, member_configs[scenario.name], scenario, args.scan_backend
                )
                t0 = time.perf_counter()
                deployments = tuple(
                    s.materialize(hierarchy, chain_cache=chain_cache)
                    for s in scenario.transform_skeletons(skeletons)
                )
                t1 = time.perf_counter()
                if columnar:
                    summary = summarize_shard_columnar(member_task, deployments, spec)
                else:
                    scan = scan_shard(member_task, deployments=deployments)
                    summary = summarize_shard(member_task, deployments, scan, spec)
                t2 = time.perf_counter()
                reducers[scenario.name].add(summary)
                t3 = time.perf_counter()
                generation += t1 - t0
                scan_seconds += t2 - t1
                reduce_seconds += t3 - t2

    report_seconds = 0.0
    for scenario in grid:
        t0 = time.perf_counter()
        reduced = reducers[scenario.name].reduced_scan()
        campaign = MeasurementCampaign(
            population_config=member_configs[scenario.name], stream=True
        )
        results = campaign.finalize_streaming(reduced)
        reduce_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        build_report(results, include_sweep=False)
        report_seconds += time.perf_counter() - t0
    grid_total = time.perf_counter() - total_start

    ratio = grid_total / independent_total if independent_total else None
    sweep = {
        "grid": grid.name,
        "scenarios": len(grid),
        "shard_size": shard_size,
        "scan_backend": args.scan_backend,
        "phases": {
            "generation": round(generation, 4),
            "scan": round(scan_seconds, 4),
            "reduce": round(reduce_seconds, 4),
            "report": round(report_seconds, 4),
            "total": round(grid_total, 4),
        },
        "independent_total": round(independent_total, 4),
        "ratio": round(ratio, 3) if ratio is not None else None,
    }
    print(f"\nscenario sweep ({grid.name}: {len(grid)} scenarios, "
          f"{config.size} domains, {args.scan_backend} backend):")
    for name in ("generation", "scan", "reduce", "report", "total"):
        print(f"  {name:<11s} {sweep['phases'][name]:8.2f} s")
    print(f"  {len(grid)} independent campaigns: {independent_total:8.2f} s")
    print(f"  grid sweep / independent:  {ratio:.1%} of the wall time"
          if ratio is not None else "  (independent reference too fast to time)")
    return sweep


def _member_task(shard, member_config, scenario, scan_backend):
    from repro.scanners.sharding import DEFAULT_ANALYSIS_INITIAL_SIZE, ShardTask

    return ShardTask(
        index=shard.index,
        population_config=member_config,
        start=shard.start,
        stop=shard.stop,
        analysis_initial_size=(
            scenario.analysis_initial_size
            if scenario.analysis_initial_size is not None
            else DEFAULT_ANALYSIS_INITIAL_SIZE
        ),
        analysis_compression=scenario.client_compression,
        scan_backend=scan_backend,
    )


def profile_skeleton_cache(args: argparse.Namespace) -> dict:
    """Time generation through the skeleton store: one cold pass, warm replays.

    The cold pass populates a fresh cache while generating (RNG + issuance +
    encode + atomic write); each warm pass drops the in-process decoded-shard
    memo first (``reset_stores``), so it times the honest disk path: read,
    verify, decode, materialise.  Warm passes repeat a few times and report
    the minimum — the stable number a regression gate can pin — plus the
    hit/miss counters proving the passes did what their names claim.
    """
    import shutil
    import tempfile

    from repro.scanners import skeleton_store
    from repro.scanners.sharding import DEFAULT_SHARD_SIZE, ShardTask, plan_shards
    from repro.webpki.population import PopulationConfig

    config = PopulationConfig(size=args.size, seed=args.seed)
    shard_size = args.shard_size or DEFAULT_SHARD_SIZE

    directory = args.skeleton_cache
    tempdir = None
    if not directory:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-skel-")
        directory = tempdir.name
    else:
        # An already-warm directory would turn the "cold" pass into a warm
        # one; start from a clean slate so the two numbers mean what they say.
        shutil.rmtree(directory, ignore_errors=True)

    tasks = [
        ShardTask(
            index=shard.index,
            population_config=config,
            start=shard.start,
            stop=shard.stop,
            skeleton_cache_dir=directory,
        )
        for shard in plan_shards(config.size, shard_size)
    ]

    def generation_pass() -> float:
        t0 = time.perf_counter()
        for task in tasks:
            tuple(task.resolve_deployments())
        return time.perf_counter() - t0

    skeleton_store.reset_stores()
    skeleton_store.reset_cache_counters()
    cold_seconds = generation_pass()
    cold_counters = skeleton_store.cache_counters()

    warm_samples = []
    skeleton_store.reset_cache_counters()
    for _ in range(3):
        skeleton_store.reset_stores()
        warm_samples.append(generation_pass())
    warm_counters = skeleton_store.cache_counters()
    warm_seconds = min(warm_samples)

    store = skeleton_store.SkeletonStore(directory)
    stats = store.stats()
    if tempdir is not None:
        tempdir.cleanup()
    skeleton_store.reset_stores()

    ratio = warm_seconds / cold_seconds if cold_seconds else None
    section = {
        "cold_generation": round(cold_seconds, 4),
        "warm_generation": round(warm_seconds, 4),
        "warm_ratio": round(ratio, 4) if ratio is not None else None,
        "warm_samples": [round(sample, 4) for sample in warm_samples],
        "cold_counters": cold_counters,
        "warm_counters": warm_counters,
        "entries": stats["entries"],
        "bytes": stats["bytes"],
    }
    print(f"\nskeleton cache ({stats['entries']} generation shards, "
          f"{stats['bytes']} bytes on disk):")
    print(f"  cold generation (populates): {cold_seconds:8.2f} s "
          f"({cold_counters['hits']} hits / {cold_counters['misses']} misses)")
    print(f"  warm generation (replays):   {warm_seconds:8.2f} s "
          f"({warm_counters['hits']} hits / {warm_counters['misses']} misses)")
    if ratio is not None:
        print(f"  warm / cold:                 {ratio:8.1%}")
    return section


def run_phases(args: argparse.Namespace) -> int:
    """Time each streaming-pipeline stage separately over one campaign."""
    from repro.analysis.report import build_report
    from repro.scanners.orchestrator import MeasurementCampaign
    from repro.scanners.sharding import (
        DEFAULT_SHARD_SIZE,
        ShardTask,
        plan_shards,
        scan_shard,
    )
    from repro.scanners.streaming import (
        CampaignReducer,
        ReductionSpec,
        summarize_shard,
    )
    from repro.webpki.population import PopulationConfig

    config = PopulationConfig(size=args.size, seed=args.seed)
    shard_size = args.shard_size or DEFAULT_SHARD_SIZE
    # Defaults match `repro campaign --stream` (spoof cap 60), so the phase
    # breakdown decomposes exactly the campaign the CLI runs.
    spec = ReductionSpec()
    columnar = args.scan_backend == "columnar"
    if columnar:
        from repro.scanners.columnar import summarize_shard_columnar
    tasks = [
        ShardTask(
            index=shard.index,
            population_config=config,
            start=shard.start,
            stop=shard.stop,
            scan_backend=args.scan_backend,
        )
        for shard in plan_shards(config.size, shard_size)
    ]

    # Warm the memoized ranked list so the discovery and generation phases
    # are timed on equal footing (in a real sweep run both share one build).
    from repro.webpki.tranco import generate_tranco_list

    generate_tranco_list(config.size, seed=config.seed)

    store = tempdir = None
    if args.checkpoint_dir is not None:
        import tempfile

        from repro.scanners.checkpoint import CheckpointKey, CheckpointStore

        directory = args.checkpoint_dir
        if not directory:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            directory = tempdir.name
        store = CheckpointStore(directory)
        store.bind_campaign(config, shard_size)

    total_start = time.perf_counter()

    # Discovery pass (skeleton generation only) — what `--stream --sweep`
    # pays to count QUIC targets before the scan pass.
    t0 = time.perf_counter()
    quic_targets = 0
    for task in tasks:
        skeletons = task.resolve_skeletons()
        quic_targets += sum(1 for s in skeletons if s.supports_quic)
    discovery = time.perf_counter() - t0

    # Streaming stages, stopwatch around each: generation (shard
    # regeneration, chains included), scan (stages 1–4), reduce (summarise +
    # fold).  Identical results to `repro campaign --stream` by construction.
    generation = scan_seconds = reduce_seconds = checkpoint_seconds = 0.0
    reducer = CampaignReducer(spec=spec, run_sweep=False)
    for task in tasks:
        t0 = time.perf_counter()
        deployments = tuple(task.resolve_deployments())
        t1 = time.perf_counter()
        if columnar:
            # The kernel fuses scan+summarise, so it is all 'scan'; only the
            # reducer fold remains as 'reduce'.
            summary = scan = summarize_shard_columnar(task, deployments, spec)
        else:
            scan = scan_shard(task, deployments=deployments)
        t2 = time.perf_counter()
        if not columnar:
            summary = summarize_shard(task, deployments, scan, spec)
        reducer.add(summary)
        t3 = time.perf_counter()
        if store is not None:
            store.save(
                CheckpointKey.for_campaign(config, shard_size, task.index), summary
            )
            checkpoint_seconds += time.perf_counter() - t3
        generation += t1 - t0
        scan_seconds += t2 - t1
        reduce_seconds += t3 - t2

    t0 = time.perf_counter()
    reduced = reducer.reduced_scan()
    campaign = MeasurementCampaign(population_config=config, stream=True)
    results = campaign.finalize_streaming(reduced)
    reduce_seconds += time.perf_counter() - t0

    t0 = time.perf_counter()
    report = build_report(results, include_sweep=False)
    report_seconds = time.perf_counter() - t0
    total = time.perf_counter() - total_start

    phases = {
        "generation": round(generation, 4),
        "scan": round(scan_seconds, 4),
        "reduce": round(reduce_seconds, 4),
        "report": round(report_seconds, 4),
        "total": round(total, 4),
    }
    if store is not None:
        phases["checkpoint"] = round(checkpoint_seconds, 4)
    discovery_block = {
        "skeleton_pass": round(discovery, 4),
        "full_regeneration": round(generation, 4),
        "speedup": round(generation / discovery, 2) if discovery else None,
        "quic_targets": quic_targets,
    }

    print(f"campaign phases ({config.size} domains, seed {config.seed}, "
          f"shard size {shard_size}, streamed, no sweep, "
          f"{args.scan_backend} backend):")
    for name in ("generation", "scan", "reduce", "checkpoint", "report", "total"):
        if name in phases:
            print(f"  {name:<11s} {phases[name]:8.2f} s")
    if store is not None:
        share = checkpoint_seconds / total if total else 0.0
        print(f"checkpoint overhead: {share:.1%} of campaign wall time "
              f"({len(tasks)} shard summaries persisted)")
    print(f"discovery pass (skeletons only): {discovery:6.2f} s "
          f"({discovery_block['speedup']}x cheaper than regeneration, "
          f"{quic_targets} QUIC targets)")
    info = results.flight_cache
    if info is not None:
        print(
            f"flight-plan cache: {info.hits} hits / {info.misses} misses "
            f"({info.hit_rate:.1%} hit rate, {info.currsize} entries)"
        )

    skeleton_cache = None
    if args.skeleton_cache is not None:
        skeleton_cache = profile_skeleton_cache(args)

    sweep = None
    if args.scenario_grid:
        sweep = profile_grid_sweep(args)

    if args.json:
        payload = {
            "schema": "repro-campaign-phases/1",
            "config": {
                "size": config.size,
                "seed": config.seed,
                "shard_size": shard_size,
                "stream": True,
                "sweep": False,
                "checkpointing": store is not None,
                "scan_backend": args.scan_backend,
            },
            "phases": phases,
            "discovery_pass": discovery_block,
            "report_bytes": len(report.text),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        if skeleton_cache is not None:
            payload["skeleton_cache"] = skeleton_cache
        if sweep is not None:
            payload["scenario_sweep"] = sweep
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"phase breakdown written to {args.json}")
    if tempdir is not None:
        tempdir.cleanup()
    return 0


def run_cprofile(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report
    from repro.scanners.orchestrator import MeasurementCampaign
    from repro.webpki.population import PopulationConfig, generate_population

    t0 = time.perf_counter()
    population = generate_population(PopulationConfig(size=args.size, seed=args.seed))
    t1 = time.perf_counter()
    campaign = MeasurementCampaign(
        population=population,
        run_sweep=True,
        sweep_sample_size=250,
        spoofed_targets_per_provider=40,
    )

    profiler = cProfile.Profile()
    profiler.enable()
    results = campaign.run()
    t2 = time.perf_counter()
    if not args.skip_report:
        build_report(results)
    profiler.disable()
    t3 = time.perf_counter()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)

    print(f"population generation: {t1 - t0:6.2f} s  ({args.size} domains, seed {args.seed})")
    print(f"campaign (sweep on):   {t2 - t1:6.2f} s")
    if not args.skip_report:
        print(f"report:                {t3 - t2:6.2f} s")
    info = results.flight_cache
    if info is not None:
        print(
            f"flight-plan cache:     {info.hits} hits / {info.misses} misses "
            f"({info.hit_rate:.1%} hit rate, {info.currsize} entries)"
        )
    return 0


def main() -> int:
    parser = build_parser()
    args = parser.parse_args()
    if args.json is not None and not args.phases:
        # Only the phase mode writes the JSON breakdown; silently running a
        # multi-second cProfile instead would leave a stale BENCH_campaign.json.
        parser.error("--json requires --phases")
    if args.scenario_grid is not None and not args.phases:
        parser.error("--scenario-grid requires --phases")
    if args.skeleton_cache is not None and not args.phases:
        parser.error("--skeleton-cache requires --phases")
    if args.phases:
        return run_phases(args)
    return run_cprofile(args)


if __name__ == "__main__":
    sys.exit(main())
