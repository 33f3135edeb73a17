"""Streaming reduction of sharded campaigns (true 1M-domain runs).

Merging every shard's full result — certificate chains included — in the
parent would cap campaigns far below the paper's 1M-domain Tranco scans.
Here shards flow through scan *and* aggregation incrementally, and what a
worker ships back is a :class:`ShardSummary` — counters, CDF
count-accumulators, chain-fingerprint digests and compact row arrays —
instead of deployments, certificate records or handshake observation
objects.

The streaming reduction contract (see docs/ARCHITECTURE.md):

* **Workers reduce, the parent merges.**  ``summarize_shard`` runs in the
  worker right after ``scan_shard`` and distils everything the analysis layer
  needs; the shard's deployments and chains never cross the process boundary
  and are freed as soon as the summary exists.
* **Merging is order-insensitive and associative.**  Counter-like state adds
  up in any order; state whose final order matters (per-observation row
  arrays, sweep observations, spoof candidates) is keyed by shard index and
  concatenated in index order at finalisation.  ``CampaignReducer.add`` and
  ``CampaignReducer.merge`` therefore commute, which
  ``tests/test_properties.py`` pins over random permutations and partitions.
* **Finalisation does not depend on the shard split.**  Every reduced figure
  input — float-summation order for means and stable-sort tie-breaks
  included — is the same for any shard size and worker count, and for the
  serial path, which scans and reduces as one in-process shard, so
  ``build_report`` renders the same bytes either way
  (``tests/test_streaming_reduction.py``).
* **One result type.**  Both campaign paths return
  :class:`ReducedCampaignResults`; they differ only in how shards are
  dispatched.
"""

from __future__ import annotations

import dataclasses
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.grid import ScenarioGrid
    from ..scenarios.spec import ScenarioSpec

from ..analysis.figures import figure02b, figure07, figure08, figure12, figure13, table02
from ..core.limits import LARGER_COMMON_LIMIT
from ..quic.handshake import HandshakeClass
from ..quic.server import FlightCacheInfo
from ..scenarios import BASELINE_FINGERPRINT
from ..tls.cert_compression import (
    CertificateCompressionAlgorithm,
    chain_compression,
)
from ..webpki.deployment import DomainDeployment, ServiceCategory
from ..webpki.population import PopulationConfig
from ..webpki.skeleton import materialize_skeletons
from ..x509.ca import default_hierarchy
from ..x509.field_sizes import san_byte_share
from .backscatter import ProviderBackscatter
from .compression_scanner import ALL_ALGORITHMS
from .https_scanner import ScanFunnel
from .qscanner import CertificateComparison
from .quicreach import (
    DEFAULT_ANALYSIS_INITIAL_SIZE,
    SWEEP_INITIAL_SIZES,
    HandshakeObservation,
    SweepResult,
)
from .checkpoint import CheckpointError, CheckpointKey, CheckpointStore
from .faults import FaultPlan
from .shard_columns import lower_deployments
from .sharding import (
    DEFAULT_SHARD_SIZE,
    RetryPolicy,
    ShardDispatchError,
    ShardScanResult,
    ShardTask,
    dispatch_with_retry,
    plan_shards,
    scan_shard,
    sweep_sample_stride,
)
from .zmap import ZmapProbeResult

#: Hypergiants whose services the spoofed-source campaign reflects off.
SPOOF_PROVIDERS: Tuple[str, ...] = ("cloudflare", "google", "meta")

#: Domains the Meta PoP hosts serve; mapped to the "meta" provider even when
#: the scanned population contains no deployment for them.
META_SERVICE_DOMAINS: Tuple[str, ...] = (
    "facebook.com", "fbcdn.net", "instagram.com", "whatsapp.net",
    "messenger.com", "igcdn.com",
)


def provider_of_domain(domain: str, deployment_lookup) -> Optional[str]:
    """Map a scanned domain to its hosting provider name.

    The one implementation of the lookup the backscatter analysis needs:
    ``deployment_lookup`` returns the deployment (or ``None``) for a domain;
    Meta PoP service domains fall back to ``"meta"`` even when the sampled
    population holds no deployment for them (stage 5 always probes the Meta
    /24).  The campaign's stage-5 analyzer looks providers up through it.
    """
    deployment = deployment_lookup(domain)
    if deployment is not None and deployment.provider is not None:
        return deployment.provider
    if domain in META_SERVICE_DOMAINS:
        return "meta"
    return None


def select_per_provider(
    provider_names: Sequence[Optional[str]],
    limit: int,
    providers: Optional[Tuple[str, ...]] = None,
) -> List[int]:
    """Positions of the first ``limit`` entries per provider, in order.

    The one implementation of the spoof-target cap walk, over provider
    names (``None`` counts as ``"unknown"``): the per-shard candidate
    collection of both scan backends and the reducer's final selection all
    route through it, so any shard split selects the same targets.
    ``providers`` restricts which providers are eligible (``None``: all).
    """
    taken: List[int] = []
    per_provider: Dict[str, int] = {}
    for position, provider in enumerate(provider_names):
        provider = provider or "unknown"
        if providers is not None and provider not in providers:
            continue
        if per_provider.get(provider, 0) >= limit:
            continue
        per_provider[provider] = per_provider.get(provider, 0) + 1
        taken.append(position)
    return taken


def take_per_provider(
    deployments: Iterable[DomainDeployment],
    limit: int,
    providers: Optional[Tuple[str, ...]] = None,
) -> List[DomainDeployment]:
    """First ``limit`` deployments per provider (:func:`select_per_provider`)."""
    deployments = list(deployments)
    return [
        deployments[position]
        for position in select_per_provider(
            [deployment.provider for deployment in deployments], limit, providers
        )
    ]


@dataclass(frozen=True)
class ReductionSpec:
    """Per-shard reduction knobs a worker needs besides the scan task."""

    spoof_providers: Tuple[str, ...] = SPOOF_PROVIDERS
    spoof_limit_per_provider: int = 60
    compression_algorithm: CertificateCompressionAlgorithm = (
        CertificateCompressionAlgorithm.BROTLI
    )
    limit_bytes: int = LARGER_COMMON_LIMIT


@dataclass(frozen=True)
class ShardSummary:
    """Everything one scanned shard contributes to the reduced campaign.

    Compact by construction: counters and ``value -> multiplicity`` maps for
    everything order-insensitive, ``array``/``bytes`` rows for the few series
    whose final order matters, and the shard's (small, capped) spoof-target
    deployments — never full certificate records or observation objects.
    """

    index: int
    #: Fingerprint of the scenario the shard was generated and scanned under
    #: (:meth:`~repro.scenarios.spec.ScenarioSpec.fingerprint`); the reducer
    #: rejects merging summaries whose fingerprints differ.
    scenario_fingerprint: str
    deployment_count: int
    quic_count: int
    https_only_count: int
    # Stage 1: HTTPS scan.
    funnel_counts: Dict[str, int]
    chain_digests: FrozenSet[bytes]
    # Stage 2: handshake classification.
    handshake_total: int
    reachable_count: int
    class_counts: Dict[HandshakeClass, int]
    amp_factor_counts: Dict[float, int]
    fig13_ranks: array
    fig13_classes: bytes
    fig5_tls: array
    fig5_total: array
    fig5_limit: array
    fig5_exceeds: int
    fig5_overhead_max: int
    # Stage 2b: the sampled sweep (small; kept as observations).
    sweep_observations: Tuple[HandshakeObservation, ...]
    # Stage 3: QUIC certificates.
    quic_certificate_count: int
    comparison_total: int
    comparison_identical: int
    # Stage 4: compression scan (wild measurements).
    wild_count: int
    wild_all_three: int
    wild_support_counts: Dict[CertificateCompressionAlgorithm, int]
    wild_rates: Dict[CertificateCompressionAlgorithm, array]
    # Ground-truth (population) reductions for the certificate figures.
    start_rank: int
    category_codes: bytes
    field_size_counts: Dict[str, Dict[int, int]]
    certificate_count: int
    quic_chain_size_counts: Dict[int, int]
    https_chain_size_counts: Dict[int, int]
    parent_chain_groups: Dict[str, Dict[Tuple[str, ...], "figure07.ParentChainStats"]]
    parent_chain_totals: Dict[str, int]
    field_sums: Dict[str, Dict[str, int]]
    field_counts: Dict[str, int]
    key_alg_counters: Dict[Tuple[str, str, object], int]
    key_alg_totals: Dict[Tuple[str, str], int]
    synth_rates: array
    synth_below_uncompressed: int
    synth_below_compressed: int
    synth_count: int
    fig14_leaf_sizes: array
    fig14_san_shares: array
    # Stage 5 inputs: this shard's spoof-target candidates (capped per provider).
    spoof_candidates: Tuple[DomainDeployment, ...]
    # Flight-plan cache counters of the shard's own cache.
    flight_cache: FlightCacheInfo

    def __getstate__(self) -> dict:
        # A frozenset pickles in iteration order, which follows the
        # per-process hash salt (PYTHONHASHSEED); sorted digests make a
        # checkpoint's bytes a function of the summary alone.
        state = dict(self.__dict__)
        state["chain_digests"] = sorted(self.chain_digests)
        return state

    def __setstate__(self, state: dict) -> None:
        # Also reads summaries pickled with the set itself.
        self.__dict__.update(state, chain_digests=frozenset(state["chain_digests"]))


def summarize_shard(
    task: ShardTask,
    deployments: Sequence[DomainDeployment],
    scan: ShardScanResult,
    spec: ReductionSpec,
) -> ShardSummary:
    """Reduce one shard's deployments + scan result to a :class:`ShardSummary`.

    Runs inside the worker; after it returns, the shard's chains can be freed.
    """
    quic_deployments = [d for d in deployments if d.category is ServiceCategory.QUIC]
    https_only = [d for d in deployments if d.category is ServiceCategory.HTTPS_ONLY]

    # Stage 1: funnel counters (unique chains merge as a digest-set union).
    funnel_counts = scan.funnel.as_dict()
    funnel_counts.pop("unique_certificate_chains")
    chain_digests = frozenset(
        bytes.fromhex(record.fingerprint) for record in scan.https_records
    )

    # Stage 2: handshake observations -> per-figure compact series.
    reachable = 0
    class_counts: Dict[HandshakeClass, int] = {}
    amp_factor_counts: Dict[float, int] = {}
    fig13_ranks = array("q")
    fig13_classes = bytearray()
    fig5_tls = array("q")
    fig5_total = array("q")
    fig5_limit = array("q")
    fig5_exceeds = 0
    fig5_overhead_max = 0
    for observation in scan.handshakes:
        if not observation.reachable:
            continue
        reachable += 1
        handshake_class = observation.handshake_class
        if handshake_class is not None:
            class_counts[handshake_class] = class_counts.get(handshake_class, 0) + 1
            fig13_ranks.append(observation.rank)
            fig13_classes.append(figure13.CLASS_CODES[handshake_class])
        if observation.exceeds_limit:
            factor = observation.amplification_factor
            amp_factor_counts[factor] = amp_factor_counts.get(factor, 0) + 1
        if handshake_class is HandshakeClass.MULTI_RTT:
            limit = 3 * observation.initial_size
            fig5_tls.append(observation.tls_payload_bytes)
            fig5_total.append(observation.total_bytes)
            fig5_limit.append(limit)
            if observation.tls_payload_bytes > limit:
                fig5_exceeds += 1
            if observation.quic_overhead_bytes > fig5_overhead_max:
                fig5_overhead_max = observation.quic_overhead_bytes

    # Stage 4: wild compression measurements.
    wild_all_three = 0
    wild_support_counts: Dict[CertificateCompressionAlgorithm, int] = {
        algorithm: 0 for algorithm in ALL_ALGORITHMS
    }
    wild_rates: Dict[CertificateCompressionAlgorithm, array] = {
        algorithm: array("d") for algorithm in ALL_ALGORITHMS
    }
    for observation in scan.compression:
        if observation.supports_all_three:
            wild_all_three += 1
        for algorithm in ALL_ALGORITHMS:
            if observation.supports(algorithm):
                wild_support_counts[algorithm] += 1
            rate = observation.compression_rate(algorithm)
            if rate is not None:
                wild_rates[algorithm].append(rate)

    # Ground-truth reductions for the certificate/deployment figures.
    field_size_counts: Dict[str, Dict[int, int]] = {
        name: {} for name in figure02b.FIELD_NAMES
    }
    certificate_count = figure02b.accumulate_field_sizes(
        (
            certificate
            for deployment in deployments
            if deployment.delivered_chain is not None
            for certificate in deployment.delivered_chain.certificates
        ),
        field_size_counts,
    )

    quic_chain_size_counts: Dict[int, int] = {}
    for deployment in quic_deployments:
        chain = deployment.delivered_chain
        if chain is not None:
            size = chain.total_size
            quic_chain_size_counts[size] = quic_chain_size_counts.get(size, 0) + 1
    https_chain_size_counts: Dict[int, int] = {}
    for deployment in https_only:
        chain = deployment.https_chain
        if chain is not None:
            size = chain.total_size
            https_chain_size_counts[size] = https_chain_size_counts.get(size, 0) + 1

    parent_chain_groups: Dict[str, Dict[Tuple[str, ...], figure07.ParentChainStats]] = {
        "QUIC": {},
        "HTTPS-only": {},
    }
    parent_chain_totals = {
        "QUIC": figure07.accumulate_groups(
            quic_deployments, parent_chain_groups["QUIC"], task.start
        ),
        "HTTPS-only": figure07.accumulate_groups(
            https_only, parent_chain_groups["HTTPS-only"], task.start
        ),
    }

    field_sums, field_counts = figure08.empty_field_sums()
    figure08.accumulate_field_sums(quic_deployments, field_sums, field_counts)

    key_alg_counters: Dict[Tuple[str, str, object], int] = {}
    key_alg_totals: Dict[Tuple[str, str], int] = {}
    table02.accumulate_key_algorithms("QUIC", quic_deployments, key_alg_counters, key_alg_totals)
    table02.accumulate_key_algorithms("HTTPS-only", https_only, key_alg_counters, key_alg_totals)

    synth_rates = array("d")
    synth_below_uncompressed = synth_below_compressed = synth_count = 0
    for deployment in quic_deployments:
        chain = deployment.delivered_chain
        if chain is None:
            continue
        result = chain_compression(chain, spec.compression_algorithm)
        synth_rates.append(result.ratio)
        synth_count += 1
        if result.uncompressed_size <= spec.limit_bytes:
            synth_below_uncompressed += 1
        if result.compressed_size <= spec.limit_bytes:
            synth_below_compressed += 1

    fig14_leaf_sizes = array("q")
    fig14_san_shares = array("d")
    for deployment in quic_deployments:
        chain = deployment.delivered_chain
        if chain is None:
            continue
        leaf = chain.leaf
        fig14_leaf_sizes.append(leaf.size)
        fig14_san_shares.append(san_byte_share(leaf))

    # Spoof-target candidates, capped per provider (the parent re-applies the
    # cap over the shard-ordered concatenation, so shipping up to the cap per
    # shard is a sufficient superset).
    spoof_candidates = take_per_provider(
        quic_deployments, spec.spoof_limit_per_provider, spec.spoof_providers
    )
    start_rank, category_codes = figure12.encode_category_run(deployments, task.start + 1)

    return ShardSummary(
        index=task.index,
        scenario_fingerprint=task.scenario_fingerprint(),
        deployment_count=len(deployments),
        quic_count=len(quic_deployments),
        https_only_count=len(https_only),
        funnel_counts=funnel_counts,
        chain_digests=chain_digests,
        handshake_total=len(scan.handshakes),
        reachable_count=reachable,
        class_counts=class_counts,
        amp_factor_counts=amp_factor_counts,
        fig13_ranks=fig13_ranks,
        fig13_classes=bytes(fig13_classes),
        fig5_tls=fig5_tls,
        fig5_total=fig5_total,
        fig5_limit=fig5_limit,
        fig5_exceeds=fig5_exceeds,
        fig5_overhead_max=fig5_overhead_max,
        sweep_observations=scan.sweep_observations,
        quic_certificate_count=len(scan.quic_certificates),
        comparison_total=scan.comparison.total_compared,
        comparison_identical=scan.comparison.identical,
        wild_count=len(scan.compression),
        wild_all_three=wild_all_three,
        wild_support_counts=wild_support_counts,
        wild_rates=wild_rates,
        start_rank=start_rank,
        category_codes=category_codes,
        field_size_counts=field_size_counts,
        certificate_count=certificate_count,
        quic_chain_size_counts=quic_chain_size_counts,
        https_chain_size_counts=https_chain_size_counts,
        parent_chain_groups=parent_chain_groups,
        parent_chain_totals=parent_chain_totals,
        field_sums=field_sums,
        field_counts=field_counts,
        key_alg_counters=key_alg_counters,
        key_alg_totals=key_alg_totals,
        synth_rates=synth_rates,
        synth_below_uncompressed=synth_below_uncompressed,
        synth_below_compressed=synth_below_compressed,
        synth_count=synth_count,
        fig14_leaf_sizes=fig14_leaf_sizes,
        fig14_san_shares=fig14_san_shares,
        spoof_candidates=tuple(spoof_candidates),
        flight_cache=scan.flight_cache,
    )


def _summarize_visit(task: ShardTask, spec: ReductionSpec) -> Tuple[ShardSummary, ...]:
    """Resolve, scan and reduce one shard visit: one summary per member.

    The members are ``task.grid_scenarios``, each derived through
    :meth:`~repro.scanners.sharding.ShardTask.for_scenario`, or the task
    itself: a single-scenario run is a one-member visit.  The cross-scenario
    shard-reuse contract (docs/ARCHITECTURE.md): scenarios are pure post-RNG
    skeleton transforms, so the shard's *baseline* skeletons are generated
    once per population config (members whose ``population_overrides``
    change it get their own), each non-identity member transform is replayed
    against them, and every member materialises through one shared
    ``ChainSpec → chain`` cache.  Equal specs materialise byte-identical
    chains, and specs embed their domain, so no two deployments of one scan
    share an entry: each summary is byte-identical to the one an independent
    single-scenario campaign produces for this shard.

    A columnar member that needs no transform and has a skeleton store reads
    the stored columns directly and builds no per-domain object; any other
    columnar member lowers its materialised deployments into the same
    :class:`~repro.scanners.shard_columns.ShardColumns` record.
    """
    members = (
        tuple(task.for_scenario(scenario) for scenario in task.grid_scenarios)
        if task.grid_scenarios
        else (task,)
    )
    hierarchy = default_hierarchy()
    chain_cache: Dict = {}
    baselines: Dict[PopulationConfig, Sequence] = {}

    def deployments_of(member: ShardTask) -> Tuple[DomainDeployment, ...]:
        base = dataclasses.replace(member.population_config, scenario=None)
        if base not in baselines:
            # With a skeleton store, the issued-leaf annexes also seed the
            # chain cache, so untouched specs materialise without issuance.
            baselines[base] = dataclasses.replace(
                member, population_config=base
            ).resolve_skeletons(chain_cache)
        skeletons = baselines[base]
        scenario = member.population_config.scenario
        if scenario is not None and not scenario.is_identity:
            skeletons = scenario.transform_skeletons(skeletons)
        return tuple(materialize_skeletons(skeletons, hierarchy, chain_cache))

    summaries = []
    for member in members:
        if member.scan_backend != "columnar":
            deployments = deployments_of(member)
            scan = scan_shard(member, deployments=deployments)
            summaries.append(summarize_shard(member, deployments, scan, spec))
            continue
        # Imported lazily: columnar imports this module at top level.
        from . import columnar

        scenario = member.population_config.scenario
        if member.skeleton_cache_dir is not None and (
            scenario is None or scenario.is_identity
        ):
            from .skeleton_store import columns_for_range, store_for

            columns = columns_for_range(
                store_for(member.skeleton_cache_dir),
                member.population_config,
                member.start,
                member.stop,
            )
        else:
            columns = lower_deployments(deployments_of(member))
        summaries.append(columnar.summarize_shard_columnar(member, columns, spec))
    return tuple(summaries)


# The two worker entries stay distinct module-level functions, not aliases of
# one another: per-entry tracing wraps each module global, so an alias would
# be wrapped twice and count every shard twice.  A scripted fault for
# ``(shard, attempt)`` fires before any scanning happens, so an injected
# crash never leaves a half-observed shard.

def _scan_and_summarize(
    payload: Tuple[ShardTask, ReductionSpec, int, object]
) -> Tuple[ShardSummary, ...]:
    """Worker entry of single-scenario runs: a one-member shard visit."""
    task, spec, attempt, fault_plan = payload
    if fault_plan is not None:
        fault_plan.inject_worker_fault(task.index, attempt)
    return _summarize_visit(task, spec)


def _scan_and_summarize_grid(
    payload: Tuple[ShardTask, ReductionSpec, int, object]
) -> Tuple[ShardSummary, ...]:
    """Grid worker entry: one generation pass, one summary per member scenario."""
    task, spec, attempt, fault_plan = payload
    if fault_plan is not None:
        fault_plan.inject_worker_fault(task.index, attempt)
    if not task.grid_scenarios:
        raise ValueError("grid worker dispatched a task without grid_scenarios")
    return _summarize_visit(task, spec)


def _count_quic_targets(task: ShardTask) -> Tuple[int, int]:
    """Sweep discovery pass: how many QUIC targets live in this shard.

    Counts from phase-1 skeletons (no certificate issuance), so with
    ``--stream --sweep`` the population's chains are generated once — by the
    scan pass — instead of twice.
    """
    skeletons = task.resolve_skeletons()
    return task.index, sum(
        1 for skeleton in skeletons if skeleton.category is ServiceCategory.QUIC
    )


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------

def _merge_counts(target: Dict, source: Mapping) -> None:
    for key, value in source.items():
        target[key] = target.get(key, 0) + value


@dataclass(frozen=True)
class ReducedScanResults:
    """Stages 1–4 of a campaign, fully reduced (the parent-side contract).

    Order-normalised and comparable: two reducers fed the same shards in any
    order or grouping produce equal instances.
    """

    #: Fingerprint of the scenario every folded shard was scanned under;
    #: checked again at finalisation so persisted reductions (the
    #: checkpoint/resume seam) cannot be finalised under the wrong scenario.
    scenario_fingerprint: str
    deployment_count: int
    quic_count: int
    https_only_count: int
    funnel: ScanFunnel
    handshake_total: int
    reachable_count: int
    class_counts: Dict[HandshakeClass, int]
    amp_factor_counts: Dict[float, int]
    fig13_ranks: array
    fig13_classes: bytes
    fig5_rows: Tuple[Tuple[int, int, int], ...]
    fig5_exceeds: int
    fig5_overhead_max: int
    sweep: Optional[SweepResult]
    quic_certificate_count: int
    certificate_comparison: CertificateComparison
    wild_count: int
    wild_all_three: int
    wild_support_counts: Dict[CertificateCompressionAlgorithm, int]
    wild_rates: Dict[CertificateCompressionAlgorithm, array]
    category_runs: Tuple[Tuple[int, bytes], ...]
    field_size_counts: Dict[str, Dict[int, int]]
    certificate_count: int
    quic_chain_size_counts: Dict[int, int]
    https_chain_size_counts: Dict[int, int]
    parent_chain_groups: Dict[str, Dict[Tuple[str, ...], "figure07.ParentChainStats"]]
    parent_chain_totals: Dict[str, int]
    field_sums: Dict[str, Dict[str, int]]
    field_counts: Dict[str, int]
    key_alg_counters: Dict[Tuple[str, str, object], int]
    key_alg_totals: Dict[Tuple[str, str], int]
    synth_rates: array
    synth_below_uncompressed: int
    synth_below_compressed: int
    synth_count: int
    fig14_leaf_sizes: array
    fig14_san_shares: array
    spoof_deployments: Tuple[DomainDeployment, ...]
    flight_cache: FlightCacheInfo


class CampaignReducer:
    """Order-insensitive, associative accumulator of :class:`ShardSummary`.

    ``add`` folds one summary in; ``merge`` folds another reducer in (so
    reductions themselves can be computed in parallel and combined).  State
    whose final order matters is keyed by shard index and only concatenated
    (in index order) by :meth:`reduced_scan`.
    """

    def __init__(
        self,
        spec: Optional[ReductionSpec] = None,
        run_sweep: bool = False,
        sweep_initial_sizes: Sequence[int] = SWEEP_INITIAL_SIZES,
    ) -> None:
        self._spec = spec or ReductionSpec()
        self._run_sweep = run_sweep
        self._sweep_initial_sizes = tuple(sweep_initial_sizes)
        self._indexes: set = set()
        #: Scenario fingerprint of every folded summary (``None`` until the
        #: first fold); a differing fingerprint is a campaign mix-up, not a
        #: mergeable state, and is rejected.
        self._scenario_fingerprint: Optional[str] = None
        # Order-insensitive merged state.
        self._deployment_count = 0
        self._quic_count = 0
        self._https_only_count = 0
        self._funnel: Dict[str, int] = {}
        self._digests: set = set()
        self._handshake_total = 0
        self._reachable_count = 0
        self._class_counts: Dict[HandshakeClass, int] = {}
        self._amp_factor_counts: Dict[float, int] = {}
        self._fig5_exceeds = 0
        self._fig5_overhead_max = 0
        self._quic_certificate_count = 0
        self._comparison_total = 0
        self._comparison_identical = 0
        self._wild_count = 0
        self._wild_all_three = 0
        self._wild_support_counts: Dict[CertificateCompressionAlgorithm, int] = {}
        self._field_size_counts: Dict[str, Dict[int, int]] = {
            name: {} for name in figure02b.FIELD_NAMES
        }
        self._certificate_count = 0
        self._quic_chain_size_counts: Dict[int, int] = {}
        self._https_chain_size_counts: Dict[int, int] = {}
        self._parent_chain_groups: Dict[str, Dict[Tuple[str, ...], figure07.ParentChainStats]] = {
            "QUIC": {},
            "HTTPS-only": {},
        }
        self._parent_chain_totals: Dict[str, int] = {"QUIC": 0, "HTTPS-only": 0}
        self._field_sums, self._field_counts = figure08.empty_field_sums()
        self._key_alg_counters: Dict[Tuple[str, str, object], int] = {}
        self._key_alg_totals: Dict[Tuple[str, str], int] = {}
        self._synth_below_uncompressed = 0
        self._synth_below_compressed = 0
        self._synth_count = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_currsize = 0
        self._cache_maxsize = 0
        # Shard-index-keyed state (concatenated in index order at finalise).
        self._category_runs: Dict[int, Tuple[int, bytes]] = {}
        self._fig13: Dict[int, Tuple[array, bytes]] = {}
        self._fig5: Dict[int, Tuple[array, array, array]] = {}
        self._wild_rates: Dict[int, Dict[CertificateCompressionAlgorithm, array]] = {}
        self._synth_rates: Dict[int, array] = {}
        self._fig14: Dict[int, Tuple[array, array]] = {}
        self._sweep: Dict[int, Tuple[HandshakeObservation, ...]] = {}
        self._spoof: Dict[int, Tuple[DomainDeployment, ...]] = {}
        #: How many spoof candidates (per provider) each shard *shipped* —
        #: kept for every shard so stored candidates can be trimmed as soon
        #: as earlier shards are known to cover the per-provider caps.
        self._spoof_shipped: Dict[int, Dict[str, int]] = {}
        #: Trim watermark: shards ``[0, _spoof_frontier)`` are all present and
        #: already trimmed; ``_spoof_covered`` is their (cap-saturated)
        #: per-provider candidate count.  Advancing incrementally keeps the
        #: trim O(candidates) overall instead of re-walking every shard per add.
        self._spoof_frontier = 0
        self._spoof_covered: Dict[str, int] = {}

    # -- folding -----------------------------------------------------------------

    def add(self, summary: ShardSummary) -> None:
        """Fold one shard summary in (via :meth:`merge`, the single fold path)."""
        delta = type(self)(
            spec=self._spec,
            run_sweep=self._run_sweep,
            sweep_initial_sizes=self._sweep_initial_sizes,
        )
        delta._load(summary)
        self.merge(delta)

    def _load(self, summary: ShardSummary) -> None:
        """Initialise this (empty) reducer with exactly one shard's summary.

        Plain assignments only — all fold logic lives in :meth:`merge`, so a
        new ``ShardSummary`` field cannot be folded one way by ``add`` and
        another by ``merge``.  The summary's containers are referenced, not
        copied: merging only ever mutates the *target* reducer's state.
        """
        index = summary.index
        self._indexes = {index}
        self._scenario_fingerprint = summary.scenario_fingerprint
        self._deployment_count = summary.deployment_count
        self._quic_count = summary.quic_count
        self._https_only_count = summary.https_only_count
        self._funnel = dict(summary.funnel_counts)
        self._digests = set(summary.chain_digests)
        self._handshake_total = summary.handshake_total
        self._reachable_count = summary.reachable_count
        self._class_counts = dict(summary.class_counts)
        self._amp_factor_counts = dict(summary.amp_factor_counts)
        self._fig5_exceeds = summary.fig5_exceeds
        self._fig5_overhead_max = summary.fig5_overhead_max
        self._quic_certificate_count = summary.quic_certificate_count
        self._comparison_total = summary.comparison_total
        self._comparison_identical = summary.comparison_identical
        self._wild_count = summary.wild_count
        self._wild_all_three = summary.wild_all_three
        self._wild_support_counts = dict(summary.wild_support_counts)
        self._field_size_counts = summary.field_size_counts
        self._certificate_count = summary.certificate_count
        self._quic_chain_size_counts = dict(summary.quic_chain_size_counts)
        self._https_chain_size_counts = dict(summary.https_chain_size_counts)
        self._parent_chain_groups = summary.parent_chain_groups
        self._parent_chain_totals = dict(summary.parent_chain_totals)
        self._field_sums = summary.field_sums
        self._field_counts = dict(summary.field_counts)
        self._key_alg_counters = dict(summary.key_alg_counters)
        self._key_alg_totals = dict(summary.key_alg_totals)
        self._synth_below_uncompressed = summary.synth_below_uncompressed
        self._synth_below_compressed = summary.synth_below_compressed
        self._synth_count = summary.synth_count
        self._cache_hits = summary.flight_cache.hits
        self._cache_misses = summary.flight_cache.misses
        self._cache_currsize = summary.flight_cache.currsize
        self._cache_maxsize = summary.flight_cache.maxsize
        self._category_runs = {index: (summary.start_rank, summary.category_codes)}
        self._fig13 = {index: (summary.fig13_ranks, summary.fig13_classes)}
        self._fig5 = {index: (summary.fig5_tls, summary.fig5_total, summary.fig5_limit)}
        self._wild_rates = {index: summary.wild_rates}
        self._synth_rates = {index: summary.synth_rates}
        self._fig14 = {index: (summary.fig14_leaf_sizes, summary.fig14_san_shares)}
        self._sweep = {index: summary.sweep_observations} if summary.sweep_observations else {}
        shipped: Dict[str, int] = {}
        for deployment in summary.spoof_candidates:
            provider = deployment.provider or "unknown"
            shipped[provider] = shipped.get(provider, 0) + 1
        self._spoof_shipped = {index: shipped}
        self._spoof = {index: summary.spoof_candidates} if summary.spoof_candidates else {}

    def _trim_spoof_candidates(self) -> None:
        """Drop stored spoof candidates that earlier shards already cover.

        Candidate deployments carry full certificate chains — the one heavy
        payload in a summary — so the reducer must not hoard them: once the
        contiguous shard prefix ships enough candidates of a provider to
        satisfy the cap, later candidates of that provider can never be
        selected and are freed.  The watermark only advances over shards
        *present so far*, which underestimates the covered prefix, so the
        final selection is independent of arrival order; shards beyond a gap
        are held untrimmed until the gap fills (bounded by arrival skew —
        ``pool.map`` delivers in order).
        """
        limit = self._spec.spoof_limit_per_provider
        while self._spoof_frontier in self._spoof_shipped:
            index = self._spoof_frontier
            candidates = self._spoof.get(index)
            if candidates:
                kept: List[DomainDeployment] = []
                taken: Dict[str, int] = {}
                for deployment in candidates:
                    provider = deployment.provider or "unknown"
                    if self._spoof_covered.get(provider, 0) + taken.get(provider, 0) >= limit:
                        continue
                    taken[provider] = taken.get(provider, 0) + 1
                    kept.append(deployment)
                if len(kept) != len(candidates):
                    if kept:
                        self._spoof[index] = tuple(kept)
                    else:
                        del self._spoof[index]
            for provider, count in self._spoof_shipped[index].items():
                self._spoof_covered[provider] = min(
                    limit, self._spoof_covered.get(provider, 0) + count
                )
            self._spoof_frontier = index + 1
        if all(
            self._spoof_covered.get(provider, 0) >= limit
            for provider in self._spec.spoof_providers
        ):
            # The contiguous prefix saturates every cap: candidates of any
            # later shard (gaps included) can never be selected.
            for index in [i for i in self._spoof if i >= self._spoof_frontier]:
                del self._spoof[index]

    def merge(self, other: "CampaignReducer") -> None:
        """Fold another reducer's state into this one (disjoint shard sets)."""
        overlap = self._indexes & other._indexes
        if overlap:
            raise ValueError(f"shards reduced twice: {sorted(overlap)}")
        if other._scenario_fingerprint is not None:
            if self._scenario_fingerprint is None:
                self._scenario_fingerprint = other._scenario_fingerprint
            elif self._scenario_fingerprint != other._scenario_fingerprint:
                raise ValueError(
                    "mixed-scenario merge rejected: shard summaries were scanned "
                    f"under different scenario specs ({self._scenario_fingerprint[:12]} "
                    f"vs {other._scenario_fingerprint[:12]})"
                )
        self._indexes |= other._indexes
        self._deployment_count += other._deployment_count
        self._quic_count += other._quic_count
        self._https_only_count += other._https_only_count
        _merge_counts(self._funnel, other._funnel)
        self._digests |= other._digests
        self._handshake_total += other._handshake_total
        self._reachable_count += other._reachable_count
        _merge_counts(self._class_counts, other._class_counts)
        _merge_counts(self._amp_factor_counts, other._amp_factor_counts)
        self._fig5_exceeds += other._fig5_exceeds
        self._fig5_overhead_max = max(self._fig5_overhead_max, other._fig5_overhead_max)
        self._quic_certificate_count += other._quic_certificate_count
        self._comparison_total += other._comparison_total
        self._comparison_identical += other._comparison_identical
        self._wild_count += other._wild_count
        self._wild_all_three += other._wild_all_three
        _merge_counts(self._wild_support_counts, other._wild_support_counts)
        for name, counts in other._field_size_counts.items():
            _merge_counts(self._field_size_counts[name], counts)
        self._certificate_count += other._certificate_count
        _merge_counts(self._quic_chain_size_counts, other._quic_chain_size_counts)
        _merge_counts(self._https_chain_size_counts, other._https_chain_size_counts)
        for group, stats_by_key in other._parent_chain_groups.items():
            merged = self._parent_chain_groups[group]
            for key, stats in stats_by_key.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = figure07.ParentChainStats(
                        count=stats.count,
                        leaf_size_counts=dict(stats.leaf_size_counts),
                        first_index=stats.first_index,
                        parent_sizes=stats.parent_sizes,
                    )
                else:
                    existing.merge(stats)
        _merge_counts(self._parent_chain_totals, other._parent_chain_totals)
        for label, sums in other._field_sums.items():
            _merge_counts(self._field_sums[label], sums)
        _merge_counts(self._field_counts, other._field_counts)
        _merge_counts(self._key_alg_counters, other._key_alg_counters)
        _merge_counts(self._key_alg_totals, other._key_alg_totals)
        self._synth_below_uncompressed += other._synth_below_uncompressed
        self._synth_below_compressed += other._synth_below_compressed
        self._synth_count += other._synth_count
        self._cache_hits += other._cache_hits
        self._cache_misses += other._cache_misses
        self._cache_currsize += other._cache_currsize
        self._cache_maxsize = max(self._cache_maxsize, other._cache_maxsize)
        self._category_runs.update(other._category_runs)
        self._fig13.update(other._fig13)
        self._fig5.update(other._fig5)
        self._wild_rates.update(other._wild_rates)
        self._synth_rates.update(other._synth_rates)
        self._fig14.update(other._fig14)
        self._sweep.update(other._sweep)
        self._spoof.update(other._spoof)
        self._spoof_shipped.update(other._spoof_shipped)
        self._trim_spoof_candidates()

    # -- finalisation ------------------------------------------------------------

    def reduced_scan(self) -> ReducedScanResults:
        """Normalise the merged state into the deterministic reduced contract."""
        funnel = ScanFunnel()
        for name, value in self._funnel.items():
            setattr(funnel, name, value)
        funnel.unique_certificate_chains = len(self._digests)

        ordered = sorted(self._indexes)

        fig13_ranks = array("q")
        fig13_classes = bytearray()
        for index in ordered:
            ranks, classes = self._fig13.get(index, (array("q"), b""))
            fig13_ranks.extend(ranks)
            fig13_classes.extend(classes)

        fig5_rows: List[Tuple[int, int, int]] = []
        for index in ordered:
            tls, total, limit = self._fig5.get(index, (array("q"),) * 3)
            fig5_rows.extend(zip(tls, total, limit))

        wild_rates: Dict[CertificateCompressionAlgorithm, array] = {
            algorithm: array("d") for algorithm in ALL_ALGORITHMS
        }
        for index in ordered:
            for algorithm, rates in self._wild_rates.get(index, {}).items():
                wild_rates[algorithm].extend(rates)

        synth_rates = array("d")
        for index in ordered:
            synth_rates.extend(self._synth_rates.get(index, array("d")))

        fig14_leaf_sizes = array("q")
        fig14_san_shares = array("d")
        for index in ordered:
            sizes, shares = self._fig14.get(index, (array("q"), array("d")))
            fig14_leaf_sizes.extend(sizes)
            fig14_san_shares.extend(shares)

        category_runs = tuple(
            (self._category_runs[index][0], self._category_runs[index][1])
            for index in ordered
            if index in self._category_runs
        )

        sweep: Optional[SweepResult] = None
        if self._run_sweep:
            by_size: Dict[int, List[HandshakeObservation]] = {
                size: [] for size in self._sweep_initial_sizes
            }
            for index in ordered:
                for observation in self._sweep.get(index, ()):
                    by_size[observation.initial_size].append(observation)
            sweep = SweepResult(
                observations=tuple(
                    observation
                    for size in self._sweep_initial_sizes
                    for observation in by_size[size]
                )
            )

        spoof = take_per_provider(
            (
                deployment
                for index in ordered
                for deployment in self._spoof.get(index, ())
            ),
            self._spec.spoof_limit_per_provider,
        )

        return ReducedScanResults(
            scenario_fingerprint=self._scenario_fingerprint or BASELINE_FINGERPRINT,
            deployment_count=self._deployment_count,
            quic_count=self._quic_count,
            https_only_count=self._https_only_count,
            funnel=funnel,
            handshake_total=self._handshake_total,
            reachable_count=self._reachable_count,
            class_counts=dict(self._class_counts),
            amp_factor_counts=dict(self._amp_factor_counts),
            fig13_ranks=fig13_ranks,
            fig13_classes=bytes(fig13_classes),
            fig5_rows=tuple(fig5_rows),
            fig5_exceeds=self._fig5_exceeds,
            fig5_overhead_max=self._fig5_overhead_max,
            sweep=sweep,
            quic_certificate_count=self._quic_certificate_count,
            certificate_comparison=CertificateComparison(
                total_compared=self._comparison_total,
                identical=self._comparison_identical,
                different=self._comparison_total - self._comparison_identical,
            ),
            wild_count=self._wild_count,
            wild_all_three=self._wild_all_three,
            wild_support_counts={
                algorithm: self._wild_support_counts.get(algorithm, 0)
                for algorithm in ALL_ALGORITHMS
            },
            wild_rates=wild_rates,
            category_runs=category_runs,
            field_size_counts={
                name: dict(counts) for name, counts in self._field_size_counts.items()
            },
            certificate_count=self._certificate_count,
            quic_chain_size_counts=dict(self._quic_chain_size_counts),
            https_chain_size_counts=dict(self._https_chain_size_counts),
            parent_chain_groups={
                # Deep-copied: merge() mutates ParentChainStats in place, so a
                # snapshot must not alias the reducer's live group stats.
                group: {
                    key: figure07.ParentChainStats(
                        count=stats.count,
                        leaf_size_counts=dict(stats.leaf_size_counts),
                        first_index=stats.first_index,
                        parent_sizes=stats.parent_sizes,
                    )
                    for key, stats in stats_by_key.items()
                }
                for group, stats_by_key in self._parent_chain_groups.items()
            },
            parent_chain_totals=dict(self._parent_chain_totals),
            field_sums={label: dict(sums) for label, sums in self._field_sums.items()},
            field_counts=dict(self._field_counts),
            key_alg_counters=dict(self._key_alg_counters),
            key_alg_totals=dict(self._key_alg_totals),
            synth_rates=synth_rates,
            synth_below_uncompressed=self._synth_below_uncompressed,
            synth_below_compressed=self._synth_below_compressed,
            synth_count=self._synth_count,
            fig14_leaf_sizes=fig14_leaf_sizes,
            fig14_san_shares=fig14_san_shares,
            spoof_deployments=tuple(spoof),
            flight_cache=FlightCacheInfo(
                hits=self._cache_hits,
                misses=self._cache_misses,
                currsize=self._cache_currsize,
                maxsize=self._cache_maxsize,
            ),
        )


# ---------------------------------------------------------------------------
# The streamed campaign result (what build_report consumes)
# ---------------------------------------------------------------------------

@dataclass
class ReducedCampaignResults:
    """A full campaign's results in reduced form: the contract every report reads.

    Every campaign path returns it, serial and streamed alike.  Stage 5 (backscatter, Meta PoP) is carried at full fidelity, like the
    (small, sampled) sweep.
    """

    scan: ReducedScanResults
    population_size: int
    backscatter: Dict[str, ProviderBackscatter]
    meta_probe_before: List[ZmapProbeResult]
    meta_probe_after: List[ZmapProbeResult]
    analysis_initial_size: int = DEFAULT_ANALYSIS_INITIAL_SIZE
    flight_cache: Optional[FlightCacheInfo] = None
    #: Scenario the campaign ran under (``None``: plain baseline pipeline);
    #: non-identity scenarios are stamped into the report header.
    scenario: Optional["ScenarioSpec"] = None


# ---------------------------------------------------------------------------
# Driving a streamed scan
# ---------------------------------------------------------------------------

def _stream_shards(
    config: PopulationConfig,
    members: Mapping[object, PopulationConfig],
    make_task: Callable[[ShardTask, Tuple], ShardTask],
    worker: Callable,
    bind: Callable[[CheckpointStore], None],
    progress: Optional[Callable[[str], None]],
    *,
    workers: int,
    shard_size: int,
    spec: Optional[ReductionSpec],
    checkpoint_dir: Optional[str],
    resume: bool,
    retry_policy: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    scan_backend: Optional[str],
    skeleton_cache_dir: Optional[str],
    run_sweep: bool = False,
    sweep_sample_size: Optional[int] = None,
) -> Dict[object, ReducedScanResults]:
    """The one streamed shard driver behind single-scenario and grid runs.

    ``members`` maps each member key to the population config its summaries
    are checkpointed under (``{None: config}`` for a single run).  Every
    shard is one visit: ``make_task(task, missing)`` turns the shard's plain
    task into the dispatched one for the member keys still ``missing`` from
    the checkpoint store, and ``worker`` returns one summary per member, in
    that order.  Each member folds into its own :class:`CampaignReducer`.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if resume and checkpoint_dir is None:
        raise CheckpointError("resume requires a checkpoint directory")
    if skeleton_cache_dir is not None:
        # Bind (or verify) the directory in the parent so a mismatched cache
        # fails fast with one actionable error instead of once per worker.
        from .skeleton_store import store_for

        store_for(skeleton_cache_dir).bind(dataclasses.replace(config, scenario=None))
    from .columnar import resolve_scan_backend  # lazy: columnar imports us

    scan_backend = resolve_scan_backend(scan_backend)
    spec = spec or ReductionSpec()
    shard_specs = plan_shards(config.size, shard_size)
    indices = [shard.index for shard in shard_specs]
    multiprocess = workers > 1 and len(shard_specs) > 1

    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        bind(store)

    tasks = [
        ShardTask(
            index=shard.index,
            population_config=config,
            start=shard.start,
            stop=shard.stop,
            run_sweep=run_sweep,
            scan_backend=scan_backend,
            skeleton_cache_dir=skeleton_cache_dir,
        )
        for shard in shard_specs
    ]
    if run_sweep:
        # An unsampled sweep has stride 1 whatever the QUIC-target count, so
        # it skips the discovery pass entirely.
        counts = [0] * len(tasks)
        if sweep_sample_size is not None and multiprocess:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                counts = [count for _, count in pool.map(_count_quic_targets, tasks)]
        elif sweep_sample_size is not None:
            counts = [count for _, count in map(_count_quic_targets, tasks)]
        stride = sweep_sample_stride(sum(counts), sweep_sample_size)
        offset = 0
        for index, count in enumerate(counts):
            tasks[index] = dataclasses.replace(
                tasks[index], sweep_local_selection=(offset, stride)
            )
            offset += count

    reducers = {key: CampaignReducer(spec=spec, run_sweep=run_sweep) for key in members}
    # Members still to scan, per shard; resume drains (shard, member) pairs
    # out of this map so a visit only carries its missing members.  The
    # reducer re-checks scenario fingerprints on every fold, and
    # finalize_streaming re-checks once more at the resume seam.
    pending: Dict[int, List] = {index: list(members) for index in indices}
    if resume and store is not None:
        for key, member_config in members.items():
            resumed = store.load_valid(member_config, shard_size, indices)
            for index in sorted(resumed):
                reducers[key].add(resumed[index])
                pending[index].remove(key)
        if progress is not None:
            folded = sum(len(members) - len(missing) for missing in pending.values())
            progress(
                f"resumed {folded}/{len(indices) * len(members)} "
                f"(shard, scenario) checkpoints"
            )
    to_run = [index for index in indices if pending[index]]
    total_pairs = sum(len(pending[index]) for index in to_run)
    reduced_pairs = 0

    def make_payload(index: int, attempt: int):
        return (make_task(tasks[index], tuple(pending[index])), spec, attempt, fault_plan)

    def on_result(index: int, summaries: Tuple[ShardSummary, ...], attempt: int = 0) -> None:
        nonlocal reduced_pairs
        keys = pending[index]
        if len(summaries) != len(keys):
            raise ValueError(
                f"shard visit returned {len(summaries)} summaries for "
                f"{len(keys)} scenarios on shard {index}"
            )
        for key, summary in zip(keys, summaries):
            if store is not None:
                path = store.save(
                    CheckpointKey.for_campaign(members[key], shard_size, index),
                    summary,
                    attempt=attempt,
                )
                if fault_plan is not None:
                    fault_plan.apply_checkpoint_faults(index, path, attempt)
            reducers[key].add(summary)
        reduced_pairs += len(keys)
        if progress is not None:
            progress(
                f"shard {index}: {len(keys)} scenario(s) reduced "
                f"({reduced_pairs}/{total_pairs} pairs)"
            )

    try:
        dispatch_with_retry(
            to_run,
            make_payload,
            worker,
            workers if multiprocess else 1,
            retry_policy,
            on_result,
        )
    except ShardDispatchError as error:
        if store is not None:
            completed = sorted(set(indices) - set(error.incomplete))
            error.manifest = store.write_incomplete_manifest(completed, error.incomplete)
        raise
    if store is not None:
        store.clear_incomplete_manifest()
    return {key: reducer.reduced_scan() for key, reducer in reducers.items()}


def run_streaming_scan(
    config: PopulationConfig,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    run_sweep: bool = False,
    sweep_sample_size: Optional[int] = 2000,
    spec: Optional[ReductionSpec] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    scan_backend: Optional[str] = None,
    skeleton_cache_dir: Optional[str] = None,
) -> ReducedScanResults:
    """Stream stages 1–4 over a generated population, reducing as shards finish.

    The parent never materialises the population: tasks carry only
    ``(config, index range)``; workers regenerate, scan and reduce their
    shard, and ship back a :class:`ShardSummary`.  With ``run_sweep`` a
    near-free discovery pass first counts QUIC targets per shard so workers
    can select their slice of the globally-strided sweep sample locally; the
    count comes from phase-1 skeletons (two-phase generation), so the
    population's certificate chains are generated once — by the scan pass —
    not twice.  The scan side of ``config.scenario`` (analysis Initial size,
    client compression offer) is derived per task by
    :meth:`~repro.scanners.sharding.ShardTask.for_scenario`.

    Durability (see docs/ARCHITECTURE.md, "Durable campaigns"):

    * ``checkpoint_dir`` persists every :class:`ShardSummary` to disk as it is
      reduced — content-addressed, atomic, self-verifying
      (:mod:`repro.scanners.checkpoint`).
    * ``resume`` folds the directory's valid checkpoints in first and
      dispatches only the missing shards; invalid files are quarantined and
      their shards re-scanned, so a resumed report stays byte-identical to an
      uninterrupted run.
    * ``retry_policy`` re-dispatches crashed / timed-out shards on a fresh
      pool; exhausted retries raise
      :class:`~repro.scanners.sharding.ShardDispatchError` after writing an
      ``incomplete.json`` manifest naming the missing shard indices.
    * ``fault_plan`` arms the deterministic fault-injection harness
      (:mod:`repro.scanners.faults`) — testing only.

    ``scan_backend`` picks the shard-scan implementation (``"object"`` or
    ``"columnar"``, see :mod:`repro.scanners.columnar`); ``None`` consults the
    ``REPRO_SCAN_BACKEND`` environment knob and defaults to ``"object"``.
    Both backends produce byte-identical summaries, so checkpoints written by
    one backend resume cleanly under the other.

    ``skeleton_cache_dir`` points workers at a persistent
    :class:`~repro.scanners.skeleton_store.SkeletonStore`: generation becomes
    a verified read of cached baseline shards (warm) or a read-through that
    populates the store (cold), byte-identical either way.  Composes freely
    with checkpoints, resume, retries and both backends.
    """
    scenario = config.scenario
    return _stream_shards(
        config,
        {None: config},
        lambda task, _: task if scenario is None else task.for_scenario(scenario),
        _scan_and_summarize,
        lambda store: store.bind_campaign(config, shard_size),
        None,
        workers=workers,
        shard_size=shard_size,
        run_sweep=run_sweep,
        sweep_sample_size=sweep_sample_size,
        spec=spec,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        scan_backend=scan_backend,
        skeleton_cache_dir=skeleton_cache_dir,
    )[None]


def run_streaming_grid_scan(
    config: PopulationConfig,
    grid: "ScenarioGrid",
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    spec: Optional[ReductionSpec] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    scan_backend: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    skeleton_cache_dir: Optional[str] = None,
) -> Dict[str, ReducedScanResults]:
    """Stream an N-scenario grid over one population at one-generation cost.

    The amortized counterpart of N :func:`run_streaming_scan` calls: every
    worker visit to a shard generates the baseline skeletons once, replays
    all requested scenario transforms against them and scans each
    (:func:`_summarize_visit`), so the sweep costs ``1×generation +
    N×scan`` instead of ``N×(generation + scan)``.  Results fan into one
    :class:`CampaignReducer` per member scenario — each reducer still sees
    exactly one fingerprint, so the mixed-scenario rejection of single runs
    is unchanged — and the returned per-scenario
    :class:`ReducedScanResults` are byte-identical to independent runs.

    ``config`` is the scenario-free *base* campaign config; each member
    derives its own via :meth:`ScenarioSpec.population_config`, so members
    with ``population_overrides`` participate too (they form their own
    generation group inside the worker visit).

    Durability mirrors single-scenario runs but at ``(shard, scenario)``
    granularity: one ``checkpoint_dir`` holds the whole grid
    (:meth:`CheckpointStore.bind_grid` binds ``(seed, size, shard_size,
    grid fingerprint)``; checkpoint files stay content-addressed by member
    fingerprint), and ``resume`` dispatches each shard with only the member
    scenarios missing from the store.

    ``progress`` (optional) receives one human-readable line per reduced
    shard visit and per resume fold — the CLI surfaces it so long sweeps are
    not silent.

    The Initial-size sweep is not available through the grid path: sweep
    discovery is a per-campaign global pass, so sweeping members would cost
    the very duplication this runner removes.
    """
    if config.scenario is not None:
        raise ValueError(
            "grid scans take a scenario-free base config; member scenarios "
            "derive their own configs from it"
        )
    scenarios = tuple(grid)
    scans = _stream_shards(
        config,
        {scenario: scenario.population_config(base=config) for scenario in scenarios},
        lambda task, missing: dataclasses.replace(task, grid_scenarios=missing),
        _scan_and_summarize_grid,
        lambda store: store.bind_grid(config, shard_size, grid),
        progress,
        workers=workers,
        shard_size=shard_size,
        spec=spec,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        scan_backend=scan_backend,
        skeleton_cache_dir=skeleton_cache_dir,
    )
    return {scenario.name: scans[scenario] for scenario in scenarios}
