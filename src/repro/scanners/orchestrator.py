"""Measurement campaign orchestrator (toolchain step 5: merge and sanitize).

Runs the full pipeline of the paper against a synthetic population:

1. HTTPS certificate collection over the Tranco-like list,
2. QUIC handshake classification (single Initial size and/or full sweep),
3. certificates over QUIC and the QUIC-vs-HTTPS comparison,
4. certificate-compression support scan,
5. incomplete handshakes: spoofed-source campaign observed by a telescope plus
   the ZMap-style scan of the Meta point of presence.

Stages 1–4 are the object shard scan of :mod:`repro.scanners.sharding`
(:func:`~repro.scanners.sharding.scan_shard`), reduced by
:func:`~repro.scanners.streaming.summarize_shard`; stage 5 runs in
:meth:`MeasurementCampaign.finalize_streaming`.  The analysis layer reads
every figure and table from the reduced contract,
:class:`~repro.scanners.streaming.ReducedCampaignResults`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.address import IPv4Prefix
from ..netsim.network import UdpNetwork
from ..netsim.telescope import Telescope
from ..quic.server import FlightCacheInfo, FlightPlanCache
from ..scenarios import BASELINE, ScenarioSpec
from ..webpki.deployment import DomainDeployment
from ..webpki.population import (
    InternetPopulation,
    PopulationConfig,
    build_meta_point_of_presence,
    build_network_for,
    generate_population,
)
from .columnar import resolve_scan_backend
from .sharding import (
    DEFAULT_SHARD_SIZE,
    ShardScanResult,
    ShardTask,
    scan_shard,
    sweep_sample_stride,
)
from .streaming import (
    META_SERVICE_DOMAINS,
    CampaignReducer,
    ReducedCampaignResults,
    ReductionSpec,
    provider_of_domain,
    run_streaming_grid_scan,
    run_streaming_scan,
    summarize_shard,
)
from .backscatter import BackscatterAnalyzer, simulate_spoofed_campaign
from .quicreach import DEFAULT_ANALYSIS_INITIAL_SIZE
from .zmap import ZmapProbeResult, ZmapScanner

#: Dark prefix used by the simulated telescope.
TELESCOPE_PREFIX = IPv4Prefix.parse("198.51.100.0/24")

#: The Meta point-of-presence prefix probed in §4.3.
META_POP_PREFIX = IPv4Prefix.parse("157.240.20.0/24")

# META_SERVICE_DOMAINS lives in .streaming next to provider_of_domain (the
# shared provider lookup); re-exported here for its historical import site.
__all__ = ["CampaignResults", "MeasurementCampaign", "META_SERVICE_DOMAINS"]


@dataclass
class CampaignResults:
    """A serial campaign: one in-process object shard over its population.

    ``shard`` holds the per-observation objects of stages 1–4 (funnel and
    HTTPS records, handshakes, sweep observations, QUIC certificates and
    their comparison, compression observations); ``reduced`` is that shard
    reduced and finalised through stage 5, the contract every report reads.
    """

    population: InternetPopulation
    shard: ShardScanResult
    reduced: ReducedCampaignResults

    def quic_deployments(self) -> List[DomainDeployment]:
        return self.population.quic_services()


class MeasurementCampaign:
    """Configures and runs the full measurement pipeline.

    A campaign runs one of two paths:

    * the default in-process serial path: stages 1–4 run as one object shard
      over the materialised population, and ``run()`` returns
      :class:`CampaignResults` with the shard's per-domain observations next
      to its finalised reduction;
    * ``stream=True``, the streaming reduction pipeline
      (:mod:`repro.scanners.streaming`): the population is regenerated shard
      by shard inside the workers, every shard is reduced to a compact
      summary before it reaches the parent, and ``run()`` returns a
      :class:`~repro.scanners.streaming.ReducedCampaignResults` whose report
      is byte-identical to the serial path's — at bounded parent memory,
      which is what makes 1M-domain campaigns practical.  Streaming
      regenerates from ``population_config``; passing a materialised
      ``population`` would defeat the point and is rejected.

    Everything that shapes the shard dispatch — ``workers``, ``shard_size``,
    ``scan_backend="columnar"``, ``checkpoint_dir``/``resume`` — exists on
    the streamed path only and is rejected without ``stream=True``.  Both
    paths end in :meth:`finalize_streaming`: the telescope/ZMap stage (5)
    runs in the parent process over the reduced spoof targets.

    ``scenario`` runs the campaign under a what-if
    :class:`~repro.scenarios.ScenarioSpec`: the population config is derived
    through :meth:`~repro.scenarios.ScenarioSpec.population_config`, the
    scenario's analysis Initial size replaces the 1362-byte default, and the
    spec is attached to the results (reports stamp any non-identity
    scenario).  Equivalently, pass a ``population``/``population_config``
    already derived from a scenario — the campaign picks the embedded spec
    up.  The identity ``baseline-2022`` scenario is byte-for-byte the plain
    pipeline.
    """

    def __init__(
        self,
        population: Optional[InternetPopulation] = None,
        population_config: Optional[PopulationConfig] = None,
        run_sweep: bool = False,
        sweep_sample_size: Optional[int] = 2000,
        spoofed_targets_per_provider: int = 60,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        stream: bool = False,
        scenario: Optional[ScenarioSpec] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        retry_policy=None,
        fault_plan=None,
        scan_backend: Optional[str] = None,
        skeleton_cache_dir: Optional[str] = None,
    ) -> None:
        self.stream = stream
        #: Shard-scan implementation (see :mod:`repro.scanners.columnar`).
        #: An explicit value is validated eagerly; ``None`` stays ``None`` so
        #: only streamed runs consult the ``REPRO_SCAN_BACKEND`` environment
        #: knob (the serial path always scans with the object reference).
        self.scan_backend = (
            resolve_scan_backend(scan_backend) if scan_backend is not None else None
        )
        if not stream:
            if checkpoint_dir is not None or resume:
                raise ValueError(
                    "checkpoint/resume rides the streaming pipeline; pass stream=True"
                )
            if workers is not None or shard_size is not None:
                raise ValueError(
                    "workers/shard_size shape the streamed shard dispatch; pass stream=True"
                )
            if self.scan_backend == "columnar":
                raise ValueError(
                    "the columnar backend rides the streaming pipeline; pass stream=True"
                )
        if scenario is not None:
            if population is not None:
                # A scenario-less population and the identity scenario denote
                # the same pipeline, so only reject genuine mismatches.
                embedded = population.config.scenario
                if embedded != scenario and not (embedded is None and scenario.is_identity):
                    raise ValueError(
                        "population was generated for a different scenario; "
                        "generate it from scenario.population_config() or pass "
                        "population_config instead"
                    )
            else:
                # Derive (or re-derive) the config under the scenario; any
                # caller-supplied fractions and size/seed are kept as the base.
                population_config = scenario.population_config(base=population_config)
        #: Persistent skeleton-shard cache directory (see
        #: :mod:`repro.scanners.skeleton_store`).  Works on both paths:
        #: streamed workers read their ranges through the store, and serial
        #: campaigns generate the population itself through it.
        self.skeleton_cache_dir = skeleton_cache_dir
        if stream:
            if population is not None:
                raise ValueError(
                    "stream=True regenerates shards from population_config; "
                    "pass population_config (or neither), not a materialised population"
                )
            self.population = None
            self.population_config = population_config or PopulationConfig()
        else:
            if population is not None:
                self.population = population
            elif skeleton_cache_dir is not None:
                from .skeleton_store import generate_population_cached, store_for

                self.population = generate_population_cached(
                    store_for(skeleton_cache_dir), population_config
                )
            else:
                self.population = generate_population(population_config)
            self.population_config = self.population.config
        #: The campaign's scenario: explicit argument, or whatever the
        #: population config embeds (``None`` means plain baseline).
        self.scenario = scenario if scenario is not None else self.population_config.scenario
        #: Client Initial size of the single-size analysis scan — the one
        #: scan-side knob a scenario turns.
        self.analysis_initial_size = (
            self.scenario.analysis_initial_size
            if self.scenario is not None and self.scenario.analysis_initial_size is not None
            else DEFAULT_ANALYSIS_INITIAL_SIZE
        )
        #: RFC 8879 offer of the scanning client (empty at baseline, like the
        #: paper's scanner).
        self.analysis_compression = (
            tuple(self.scenario.client_compression) if self.scenario is not None else ()
        )
        self.run_sweep = run_sweep
        self.sweep_sample_size = sweep_sample_size
        self.spoofed_targets_per_provider = spoofed_targets_per_provider
        self.workers = workers
        self.shard_size = shard_size
        #: Durability knobs, streamed runs only (see run_streaming_scan).
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    # -- pipeline ---------------------------------------------------------------

    def run(self) -> "CampaignResults | ReducedCampaignResults":
        if self.stream:
            return self._run_streaming()
        return self._run_serial()

    def _run_serial(self) -> CampaignResults:
        """Stages 1–4 as one in-process object shard over the whole population.

        The shard is scanned, reduced and finalised exactly as a streamed
        shard is; its Figure 3 sample is the global stride from QUIC index 0.
        """
        deployments = self.population.deployments
        sweep_selection = None
        if self.run_sweep:
            quic_count = len(self.population.quic_services())
            sweep_selection = (0, sweep_sample_stride(quic_count, self.sweep_sample_size))
        task = ShardTask(
            index=0,
            population_config=dataclasses.replace(
                self.population_config, scenario=self.scenario
            ),
            start=0,
            stop=len(deployments),
            analysis_initial_size=self.analysis_initial_size,
            analysis_compression=self.analysis_compression,
            run_sweep=self.run_sweep,
            sweep_local_selection=sweep_selection,
        )
        spec = ReductionSpec(spoof_limit_per_provider=self.spoofed_targets_per_provider)
        shard = scan_shard(task, deployments=deployments)
        reducer = CampaignReducer(spec=spec, run_sweep=self.run_sweep)
        reducer.add(summarize_shard(task, deployments, shard, spec))
        return CampaignResults(
            population=self.population,
            shard=shard,
            reduced=self.finalize_streaming(reducer.reduced_scan()),
        )

    def _run_streaming(self) -> ReducedCampaignResults:
        """Streaming pipeline: scan + reduce per shard, stage 5 in the parent."""
        config = self.population_config
        spec = ReductionSpec(spoof_limit_per_provider=self.spoofed_targets_per_provider)
        scan = run_streaming_scan(
            config,
            workers=self.workers if self.workers is not None else 1,
            shard_size=self.shard_size if self.shard_size is not None else DEFAULT_SHARD_SIZE,
            run_sweep=self.run_sweep,
            sweep_sample_size=self.sweep_sample_size,
            spec=spec,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            retry_policy=self.retry_policy,
            fault_plan=self.fault_plan,
            scan_backend=self.scan_backend,
            skeleton_cache_dir=self.skeleton_cache_dir,
        )
        return self.finalize_streaming(scan)

    def finalize_streaming(self, scan, meta_probes=None) -> ReducedCampaignResults:
        """Stage 5 + result assembly over already-reduced stages 1–4.

        The seam every campaign result passes through: the serial shard,
        streamed runs (resumed ones included, whose reductions fold persisted
        ``ShardSummary`` checkpoints) and each member of
        :func:`run_grid_campaign`.  The reduction's scenario fingerprint must
        match this campaign's: a persisted what-if reduction finalised under
        the wrong (or no) scenario would render a silently mislabeled report.
        ``meta_probes`` is a :func:`probe_meta_pop` result to use instead of
        probing again (a grid probes once for all members); its lookups are
        then not in this result's flight-cache counters.
        """
        expected = (self.scenario or BASELINE).fingerprint()
        if scan.scenario_fingerprint != expected:
            raise ValueError(
                "reduction was scanned under a different scenario than this "
                f"campaign ({scan.scenario_fingerprint[:12]} vs {expected[:12]}); "
                "construct the campaign from the same scenario's population config"
            )

        stage5_cache = FlightPlanCache()
        backscatter, meta_probe_before, meta_probe_after = (
            self._run_incomplete_handshake_stage(
                scan.spoof_deployments, stage5_cache, meta_probes
            )
        )

        stage5_info = stage5_cache.cache_info()
        flight_cache = FlightCacheInfo(
            hits=scan.flight_cache.hits + stage5_info.hits,
            misses=scan.flight_cache.misses + stage5_info.misses,
            currsize=scan.flight_cache.currsize + stage5_info.currsize,
            maxsize=max(scan.flight_cache.maxsize, stage5_info.maxsize),
        )

        return ReducedCampaignResults(
            scan=scan,
            population_size=scan.deployment_count,
            backscatter=backscatter,
            meta_probe_before=meta_probe_before,
            meta_probe_after=meta_probe_after,
            analysis_initial_size=self.analysis_initial_size,
            flight_cache=flight_cache,
            scenario=self.scenario,
        )

    def _run_incomplete_handshake_stage(
        self,
        spoof_deployments: Sequence[DomainDeployment],
        flight_cache: FlightPlanCache,
        meta_probes=None,
    ):
        """Stage 5: spoofed-source campaign plus the Meta PoP probes.

        Runs on a mini-fabric of just the reduced spoof-target deployments:
        ``probe_unvalidated`` depends only on the probed host, so the
        backscatter and cache counters equal a run over the whole fabric.
        """
        # 5a. Spoofed handshakes observed at the telescope.  The Meta PoP
        # hosts are always targeted, so Meta backscatter is observed even when
        # the population holds few Meta-hosted domains.
        network = build_network_for(spoof_deployments, flight_cache=flight_cache)
        telescope = Telescope()
        network.attach_telescope(TELESCOPE_PREFIX, telescope)
        hosts = (network.host_for_domain(d.domain) for d in spoof_deployments)
        targets = [host.address for host in hosts if host is not None]
        for host in build_meta_point_of_presence(patched=False, prefix=META_POP_PREFIX):
            network.attach_host(host)
            targets.append(host.address)
        simulate_spoofed_campaign(network, targets, TELESCOPE_PREFIX)
        spoof_by_domain = {d.domain: d for d in spoof_deployments}
        backscatter = BackscatterAnalyzer(
            telescope, lambda domain: provider_of_domain(domain, spoof_by_domain.get)
        ).analyze()

        # 5b. ZMap-style scan of the Meta point of presence, before and after
        # the responsible disclosure.
        if meta_probes is None:
            meta_probes = probe_meta_pop(flight_cache=flight_cache)
        return (backscatter, *meta_probes)


def probe_meta_pop(
    flight_cache=None,
) -> Tuple[List[ZmapProbeResult], List[ZmapProbeResult]]:
    """ZMap-style probes of the Meta point of presence, before and after the
    patch.  They take no population or scenario input, so every campaign of
    one run can share them."""

    def probe(patched: bool) -> List[ZmapProbeResult]:
        network = UdpNetwork(flight_cache=flight_cache)
        for host in build_meta_point_of_presence(patched=patched, prefix=META_POP_PREFIX):
            network.attach_host(host)
        return ZmapScanner(network).probe_prefix(META_POP_PREFIX)

    return probe(patched=False), probe(patched=True)


# ---------------------------------------------------------------------------
# Grid campaigns (cross-scenario shard reuse)
# ---------------------------------------------------------------------------

def run_grid_campaign(
    grid,
    config: Optional[PopulationConfig] = None,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    spoofed_targets_per_provider: int = 60,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy=None,
    fault_plan=None,
    scan_backend: Optional[str] = None,
    progress=None,
    skeleton_cache_dir: Optional[str] = None,
) -> Dict[str, ReducedCampaignResults]:
    """Run every scenario of a :class:`~repro.scenarios.grid.ScenarioGrid`
    over one shared generation pass and finalize each member.

    The amortized equivalent of N independent streamed
    :class:`MeasurementCampaign` runs: stages 1–4 go through
    :func:`~repro.scanners.streaming.run_streaming_grid_scan` (one skeleton
    pass per shard visit, N scans), then stage 5 finalizes per member under
    its own campaign — so every returned
    :class:`~repro.scanners.streaming.ReducedCampaignResults` is
    byte-identical to the one its independent ``--scenario`` run produces.
    Results are keyed by member name, in grid order.
    """
    config = config or PopulationConfig()
    spec = ReductionSpec(spoof_limit_per_provider=spoofed_targets_per_provider)
    scans = run_streaming_grid_scan(
        config,
        grid,
        workers=workers if workers is not None else 1,
        shard_size=shard_size if shard_size is not None else DEFAULT_SHARD_SIZE,
        spec=spec,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        scan_backend=scan_backend,
        progress=progress,
        skeleton_cache_dir=skeleton_cache_dir,
    )
    # The Meta PoP probes take no scenario input: probe once for the grid.
    meta_probes = probe_meta_pop(flight_cache=FlightPlanCache())
    results: Dict[str, ReducedCampaignResults] = {}
    for scenario in grid:
        campaign = MeasurementCampaign(
            population_config=scenario.population_config(base=config),
            stream=True,
            spoofed_targets_per_provider=spoofed_targets_per_provider,
        )
        results[scenario.name] = campaign.finalize_streaming(
            scans[scenario.name], meta_probes=meta_probes
        )
    return results
