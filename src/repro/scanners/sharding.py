"""Shard planning, per-shard scanning and retrying dispatch.

The per-domain stages of the campaign — HTTPS certificate collection, QUIC
handshake classification, the Initial-size sweep, certificate fetches over
QUIC and the compression scan — are embarrassingly parallel: every observation
depends on exactly one deployment.  This module holds the pieces every shard
runner shares: deterministic, rank-contiguous :class:`ShardSpec` slices, the
picklable :class:`ShardTask` a worker regenerates its shard from, the object
reference scan of one shard (:func:`scan_shard`) and the retrying dispatcher
(:func:`dispatch_with_retry`).  The streaming pipeline
(:mod:`repro.scanners.streaming`) drives them.

Determinism rules, so ``workers=1`` and ``workers=N`` yield byte-identical
campaign reports:

* Shard boundaries depend only on the population size and ``shard_size`` —
  never on the worker count — so the same shards exist however many processes
  execute them.
* Each shard is scanned against a fabric built from its own deployments with a
  *fresh* :class:`~repro.quic.server.FlightPlanCache`; cache counters are a
  pure function of the shard, not of which worker it landed on.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..quic.server import FlightCacheInfo, FlightPlanCache
from ..scenarios import BASELINE, ScenarioSpec
from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..webpki.deployment import DomainDeployment, ServiceCategory
from ..webpki.population import (
    PopulationConfig,
    build_network_for,
    build_origins_for,
    build_resolver_for,
    deployments_for_range,
)
from ..webpki.skeleton import materialize_skeletons
from ..x509.ca import default_hierarchy
from .compression_scanner import CompressionObservation, CompressionScanner
from .https_scanner import CertificateRecord, HttpsScanner, ScanFunnel
from .qscanner import CertificateComparison, QScanner, QuicCertificateRecord
from .quicreach import (
    DEFAULT_ANALYSIS_INITIAL_SIZE,
    SWEEP_INITIAL_SIZES,
    HandshakeObservation,
    InitialSizeSweep,
    QuicReach,
)

#: Deployments per scan shard.  A constant (not derived from the worker
#: count!) so that shard boundaries — and therefore merged results — are
#: identical no matter how many processes execute the shards.
DEFAULT_SHARD_SIZE = 2048

#: Sweep target type: (domain, rank, provider).
ScanTarget = Tuple[str, int, Optional[str]]


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardSpec:
    """A half-open slice ``[start, stop)`` of the rank-ordered deployment list."""

    index: int
    start: int
    stop: int


def plan_shards(total: int, shard_size: int = DEFAULT_SHARD_SIZE) -> Tuple[ShardSpec, ...]:
    """Cut ``total`` deployments into rank-contiguous shards of ``shard_size``."""
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    if total < 0:
        raise ValueError("total must not be negative")
    return tuple(
        ShardSpec(index=index, start=start, stop=min(start + shard_size, total))
        for index, start in enumerate(range(0, total, shard_size))
    )


# ---------------------------------------------------------------------------
# Per-shard scanning (runs inside worker processes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to scan one shard, picklable as one unit.

    The shard travels by recipe: ``population_config`` plus the
    ``[start, stop)`` index range, regenerated in the worker via
    :func:`~repro.webpki.population.deployments_for_range`, so certificate
    chains never cross the parent→worker pickle stream.
    """

    index: int
    population_config: Optional[PopulationConfig] = None
    start: int = 0
    stop: int = 0
    analysis_initial_size: int = DEFAULT_ANALYSIS_INITIAL_SIZE
    #: RFC 8879 algorithms the scanning client offers in the analysis scan
    #: (empty, like the paper's scanner, unless a scenario turns it on).
    analysis_compression: Tuple[CertificateCompressionAlgorithm, ...] = ()
    run_sweep: bool = False
    #: The shard's part of the Figure 3 sweep sample, as
    #: ``(quic_index_offset, stride)``.  The parent never sees the
    #: deployments, so the worker selects its own sweep targets — the QUIC
    #: targets of the shard whose *global* QUIC index (offset + local
    #: position) is a multiple of the stride — the ``targets[::stride]``
    #: sample of the whole population, without shipping any target list.
    sweep_local_selection: Optional[Tuple[int, int]] = None
    sweep_initial_sizes: Tuple[int, ...] = SWEEP_INITIAL_SIZES
    #: Which shard-scan implementation the worker runs: ``"object"`` (the
    #: reference stages 1–4 over real fabric objects) or ``"columnar"`` (the
    #: fused arithmetic kernel in :mod:`repro.scanners.columnar`).
    scan_backend: str = "object"
    #: The member scenarios of this shard visit (``None``: the task itself is
    #: the visit's one member).  The visit
    #: (:func:`repro.scanners.streaming._summarize_visit`) builds the shard's
    #: baseline skeletons once, replays every non-identity member transform
    #: against them, and emits one summary per member — the cross-scenario
    #: shard-reuse contract.  ``population_config`` then carries the *base*
    #: (scenario-free) campaign config; each member derives its own via
    #: :meth:`for_scenario`.
    grid_scenarios: Optional[Tuple[ScenarioSpec, ...]] = None
    #: Directory of the persistent skeleton-shard store
    #: (:mod:`repro.scanners.skeleton_store`).  When set, regeneration
    #: consults the store before generating and populates it after, so a warm
    #: worker skips the generation phase entirely.
    skeleton_cache_dir: Optional[str] = None

    def for_scenario(self, scenario: ScenarioSpec) -> "ShardTask":
        """Derive the single-scenario task one grid member scans under.

        Equal by construction to the task an independent ``--scenario`` run
        would have built for this shard: the member's population config (spec
        embedded), analysis Initial size and client compression offer replace
        the grid-level ones, and ``grid_scenarios`` is cleared so downstream
        summarisers see an ordinary single-scenario task.
        """
        if self.population_config is None:
            raise ValueError("grid shard tasks must carry a population config")
        config = scenario.population_config(base=self.population_config)
        return dataclasses.replace(
            self,
            population_config=config,
            analysis_initial_size=(
                scenario.analysis_initial_size
                if scenario.analysis_initial_size is not None
                else DEFAULT_ANALYSIS_INITIAL_SIZE
            ),
            analysis_compression=scenario.client_compression,
            grid_scenarios=None,
        )

    def resolve_deployments(self) -> Tuple[DomainDeployment, ...]:
        chain_cache: Dict = {}
        skeletons = self.resolve_skeletons(chain_cache)
        return tuple(materialize_skeletons(skeletons, default_hierarchy(), chain_cache))

    def scenario_fingerprint(self) -> str:
        """Fingerprint of the scenario this shard is scanned under.

        Tasks carry the spec inside ``population_config.scenario``
        (that is how a scenario travels into worker processes); tasks without
        one are by definition the baseline.  The fingerprint is stamped into
        the shard's :class:`~repro.scanners.streaming.ShardSummary`, where the
        reducer uses it to reject mixed-scenario merges.
        """
        scenario = (
            self.population_config.scenario if self.population_config is not None else None
        )
        return (scenario or BASELINE).fingerprint()

    def resolve_skeletons(self, chain_cache: Optional[Dict] = None) -> Sequence:
        """Cheap view of the shard: phase-1 skeletons, no certificate issuance.

        Runs only the skeleton pass of two-phase generation
        (:mod:`repro.webpki.skeleton`) — the basis of the near-free sweep
        discovery pass — or reads the skeletons from the skeleton store.  No
        ranked list is built here: a store hit never needs one, and every
        generating path builds (and memoizes) it on demand.  A ``chain_cache``
        is seeded from the store's issued-leaf annexes, so materialising
        through it issues nothing on a warm store.
        """
        if self.population_config is None:
            raise ValueError("shard task carries no population config")
        if self.skeleton_cache_dir is not None:
            from .skeleton_store import skeletons_for_range, store_for

            return skeletons_for_range(
                store_for(self.skeleton_cache_dir),
                self.population_config,
                self.start,
                self.stop,
                chain_cache=chain_cache,
            )
        return deployments_for_range(
            self.population_config, self.start, self.stop, skeleton=True
        )


@dataclass(frozen=True)
class ShardScanResult:
    """Partial results of stages 1–4 over one shard."""

    index: int
    funnel: ScanFunnel
    https_records: Tuple[CertificateRecord, ...]
    handshakes: Tuple[HandshakeObservation, ...]
    #: Sweep observations, Initial-size-major within the shard.
    sweep_observations: Tuple[HandshakeObservation, ...]
    quic_certificates: Tuple[QuicCertificateRecord, ...]
    comparison: CertificateComparison
    compression: Tuple[CompressionObservation, ...]
    flight_cache: FlightCacheInfo


def scan_shard(
    task: ShardTask, deployments: Optional[Sequence[DomainDeployment]] = None
) -> ShardScanResult:
    """Run pipeline stages 1–4 over one shard.

    Module-level (not a closure or method) so ``ProcessPoolExecutor`` can
    pickle it; the worker builds the shard's own resolver/origins/network and
    warms its own flight-plan cache.  ``deployments`` lets callers that have
    already resolved the shard (the streaming reducer, which also summarises
    it, and the serial campaign, whose one shard is its materialised
    population) skip a regeneration; it must equal the task's ``[start,
    stop)`` deployments.
    """
    cache = FlightPlanCache()
    if deployments is None:
        deployments = task.resolve_deployments()

    # 1. HTTPS certificate collection over this shard's names.
    https_scanner = HttpsScanner(
        build_resolver_for(deployments), build_origins_for(deployments)
    )
    https_scan = https_scanner.scan([(d.domain, d.rank) for d in deployments])

    # 2. QUIC handshake classification at the analysis Initial size.
    network = build_network_for(deployments)
    quicreach = QuicReach(network, flight_cache=cache)
    targets: List[ScanTarget] = [
        (d.domain, d.rank, d.provider)
        for d in deployments
        if d.category is ServiceCategory.QUIC
    ]
    handshakes = quicreach.scan_many(
        targets, task.analysis_initial_size, compression=task.analysis_compression
    )

    # 2b. This shard's part of the Initial-size sweep, selected locally from
    # the global stride (``sweep_local_selection``).
    sweep_targets: Tuple[ScanTarget, ...] = ()
    if task.run_sweep and task.sweep_local_selection is not None:
        offset, stride = task.sweep_local_selection
        sweep_targets = tuple(
            target
            for position, target in enumerate(targets)
            if (offset + position) % stride == 0
        )
    sweep_observations: Tuple[HandshakeObservation, ...] = ()
    if sweep_targets:
        sweep = InitialSizeSweep(quicreach, task.sweep_initial_sizes)
        sweep_observations = sweep.run(list(sweep_targets)).observations

    # 3. Certificates over QUIC and the QUIC-vs-HTTPS comparison.  Both sides
    # of every compared pair live in the same shard, so per-shard counters sum
    # to the global comparison.
    qscanner = QScanner(network)
    quic_domains = [domain for domain, _, _ in targets]
    quic_certificates = qscanner.fetch_many(quic_domains)
    comparison = qscanner.compare_with_https(
        quic_certificates, https_scan.chains_by_requested_domain()
    )

    # 4. Certificate-compression support.
    compression = CompressionScanner(network).scan_many(quic_domains)

    return ShardScanResult(
        index=task.index,
        funnel=https_scan.funnel,
        https_records=https_scan.records,
        handshakes=tuple(handshakes),
        sweep_observations=sweep_observations,
        quic_certificates=tuple(quic_certificates),
        comparison=comparison,
        compression=tuple(compression),
        flight_cache=cache.cache_info(),
    )


# ---------------------------------------------------------------------------
# Retrying shard dispatch (the one recovery path every runner shares)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry knobs for :func:`dispatch_with_retry`.

    ``max_attempts`` counts dispatches, not failures: a shard is given up on
    after being dispatched that many times.  ``shard_timeout`` (seconds) only
    applies to multi-process dispatch — an in-process shard cannot be
    abandoned mid-call.  Backoff between retry rounds grows exponentially
    from ``backoff_base`` and is capped at ``backoff_cap``.
    """

    max_attempts: int = 3
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        # Written so NaN fails too; an infinite timeout would overflow the
        # pool's wait.
        if self.shard_timeout is not None and not 0 < self.shard_timeout < math.inf:
            raise ValueError("shard_timeout must be positive and finite")

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** attempt))


class ShardDispatchError(RuntimeError):
    """Shards remained unfinished after every retry.

    Never a silently partial result: the error names exactly which shard
    indices are incomplete (``incomplete``) and which finished
    (``completed``), and — when a checkpoint store is attached — the caller
    persists the same lists as an ``incomplete.json`` manifest.
    """

    def __init__(
        self, message: str, incomplete: Sequence[int], completed: Sequence[int] = ()
    ) -> None:
        super().__init__(message)
        self.incomplete = tuple(sorted(incomplete))
        self.completed = tuple(sorted(completed))


def dispatch_with_retry(
    indices: Sequence[int],
    make_payload: Callable[[int, int], object],
    worker_fn: Callable[[object], object],
    workers: int,
    policy: Optional[RetryPolicy],
    on_result: Callable[[int, object, int], None],
) -> None:
    """Run ``worker_fn`` over one payload per shard index, retrying failures.

    The durability core of the streamed runners: each shard is dispatched up
    to ``policy.max_attempts`` times (``make_payload(index, attempt)`` builds
    the payload, so workers can know the attempt number), and
    ``on_result(index, result, attempt)`` is called exactly once per shard, in
    completion order — downstream folding must therefore be order-insensitive,
    which ``CampaignReducer`` guarantees by construction.  The attempt number
    lets checkpoint writers stay last-write-safe across retries.

    Failure containment, multi-process mode:

    * a worker exception fails only its own shard for that round;
    * a ``BrokenProcessPool`` (worker killed, OOM) fails every shard not yet
      collected, and the next round starts on a *fresh* pool;
    * shards exceeding ``policy.shard_timeout`` are abandoned together under
      one shared, progress-renewed deadline: the round waits in completion
      order (``concurrent.futures.wait``) and every completion renews the
      deadline, so K simultaneously stalled shards cost *one* timeout window
      — not K windows in series — before the pool is discarded (its worker
      processes are killed) and the shards are re-dispatched on a fresh
      pool.

    Retries cannot change bytes: every shard result is a pure function of its
    task, so a rerun merges identically.  When shards still fail after the
    last attempt the whole dispatch raises :class:`ShardDispatchError` naming
    them — completed work is only durable if the caller checkpointed it.
    """
    policy = policy or RetryPolicy()
    pending: Dict[int, int] = {index: 0 for index in indices}
    completed: List[int] = []
    last_errors: Dict[int, BaseException] = {}
    multiprocess = workers > 1

    while pending:
        failed: List[int] = []
        if not multiprocess:
            for index in sorted(pending):
                try:
                    result = worker_fn(make_payload(index, pending[index]))
                except Exception as error:
                    failed.append(index)
                    last_errors[index] = error
                else:
                    completed.append(index)
                    on_result(index, result, pending[index])
        else:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
            outstanding = set()
            try:
                futures = {
                    pool.submit(worker_fn, make_payload(index, attempt)): index
                    for index, attempt in sorted(pending.items())
                }
                outstanding = set(futures)
                deadline = (
                    None
                    if policy.shard_timeout is None
                    else time.monotonic() + policy.shard_timeout
                )
                while outstanding:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        # No progress for a full timeout window: everything
                        # still outstanding is stalled.  Fail the whole set at
                        # once — the serial per-future wait this replaces
                        # burned K windows for K stalled shards.
                        for future in outstanding:
                            index = futures[future]
                            failed.append(index)
                            last_errors[index] = FutureTimeoutError(
                                f"shard {index} exceeded the shard timeout of "
                                f"{policy.shard_timeout}s with no round progress"
                            )
                        break
                    done, outstanding = wait(
                        outstanding, timeout=remaining, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        continue  # next pass observes the expired deadline
                    for future in done:
                        index = futures[future]
                        try:
                            result = future.result()
                        except Exception as error:
                            # Worker exception or BrokenProcessPool — each
                            # fails this shard for this round only.  A broken
                            # pool completes all uncollected futures at once,
                            # so the loop drains without re-waiting.
                            failed.append(index)
                            last_errors[index] = error
                        else:
                            completed.append(index)
                            on_result(index, result, pending[index])
                    if deadline is not None:
                        # Progress renews the shared deadline: a round times
                        # out only after shard_timeout seconds of silence.
                        deadline = time.monotonic() + policy.shard_timeout
            finally:
                # Never wait: a stalled or dead pool must not block recovery.
                # Timed-out tasks may still be running; their results are
                # discarded with the pool, so `on_result` stays once-per-shard.
                # Their workers are killed, or one that never returns would
                # keep the process alive after the campaign (atomic writes
                # leave no torn file).  `_processes`: ProcessPoolExecutor has
                # no public handle on its workers before Python 3.14.
                abandoned = list((pool._processes or {}).values()) if outstanding else []
                pool.shutdown(wait=False, cancel_futures=True)
                for process in abandoned:
                    process.kill()
                for process in abandoned:
                    process.join()

        retry: Dict[int, int] = {}
        exhausted: List[int] = []
        for index in failed:
            attempt = pending[index] + 1
            if attempt >= policy.max_attempts:
                exhausted.append(index)
            else:
                retry[index] = attempt
        if exhausted:
            incomplete = sorted(set(exhausted) | set(retry))
            error = ShardDispatchError(
                f"campaign incomplete: shards {incomplete} unfinished after "
                f"{policy.max_attempts} attempt(s) "
                f"(first unrecovered error: {last_errors[exhausted[0]]!r})",
                incomplete=incomplete,
                completed=completed,
            )
            error.__cause__ = last_errors[exhausted[0]]
            raise error
        pending = retry
        if pending:
            time.sleep(policy.backoff(max(pending.values()) - 1))


# ---------------------------------------------------------------------------
# Figure 3 sweep sampling
# ---------------------------------------------------------------------------

def sweep_sample_stride(total_quic_targets: int, sweep_sample_size: Optional[int]) -> int:
    """The sampling stride of the Figure 3 sweep over the global QUIC targets.

    Shared by the serial campaign (one shard, offset 0) and the streaming
    runner (where each shard's offset is the QUIC-target count before it), so
    every shard selects its part of the sample locally from
    ``(offset, stride)`` in :func:`scan_shard`.
    """
    if sweep_sample_size is None or total_quic_targets <= sweep_sample_size:
        return 1
    return max(1, total_quic_targets // sweep_sample_size)
