"""Scenario grids tabulated: N what-if campaigns, one outcome table.

:func:`compare_grid` sweeps a :class:`~repro.scenarios.grid.ScenarioGrid`
through :func:`~repro.scanners.streaming.run_streaming_grid_scan` (one shared
generation pass, one scan per member, bounded parent memory) and distils each
member's stages 1–4 into the counterfactual headline numbers the paper argues
about:

* the handshake-class funnel (1-RTT / RETRY / Multi-RTT / Amplification
  shares over reachable QUIC services),
* amplification factors (share of handshakes exceeding the 3x limit, their
  median, mean and maximum factor),
* the compression rescue share (QUIC chains that fit under the common
  deployment limit only once brotli-compressed).

The :class:`GridComparison` renders one row per member, each after the first
with its delta against the first (the reference; by convention
``baseline-2022``).  Stage 5 (backscatter, Meta PoP probes) feeds none of
these numbers, so the sweep never runs it.

Every table is deterministic for a given ``(grid, size, seed)`` — worker
count, shard size and scan backend never change the numbers (the streaming
reduction contract) — so it can be diffed, committed, or pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

from ..quic.handshake import HandshakeClass
from .spec import ScenarioSpec

#: Handshake classes shown in the funnel, in report order.
FUNNEL_CLASSES: Tuple[HandshakeClass, ...] = (
    HandshakeClass.ONE_RTT,
    HandshakeClass.RETRY,
    HandshakeClass.MULTI_RTT,
    HandshakeClass.AMPLIFICATION,
)


@dataclass(frozen=True)
class ScenarioOutcome:
    """The headline numbers of one scenario's campaign."""

    scenario: ScenarioSpec
    population_size: int
    analysis_initial_size: int
    quic_count: int
    reachable_count: int
    #: ``(class label, share of reachable)`` in :data:`FUNNEL_CLASSES` order.
    class_shares: Tuple[Tuple[str, float], ...]
    #: Share of reachable handshakes whose first RTT exceeds 3x the Initial.
    exceeding_share: float
    #: Median amplification factor over the exceeding handshakes (lower
    #: weighted median; 0 when none exceed).
    amplification_median: float
    #: Mean amplification factor over the exceeding handshakes (0 when none).
    amplification_mean: float
    #: Largest observed amplification factor (0 when none exceed).
    amplification_max: float
    #: Share of QUIC chains that fit the common limit only once compressed.
    compression_rescue_share: float

    @property
    def one_rtt_share(self) -> float:
        return dict(self.class_shares).get(HandshakeClass.ONE_RTT.value, 0.0)


def _weighted_median(counts: Mapping[float, int]) -> float:
    """Lower weighted median of a ``value → count`` multiset (0 when empty)."""
    total = sum(counts.values())
    if not total:
        return 0.0
    midpoint = (total - 1) // 2
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen > midpoint:
            return value
    return 0.0


def outcome_from_results(scenario: ScenarioSpec, scan) -> ScenarioOutcome:
    """Reduce one scenario's streamed stages 1–4 to its comparison outcome.

    ``scan`` is the :class:`~repro.scanners.streaming.ReducedScanResults` the
    scenario's campaign reduced (independent or as a grid member).
    """
    from ..scanners.quicreach import DEFAULT_ANALYSIS_INITIAL_SIZE

    reachable = scan.reachable_count
    class_shares = tuple(
        (
            handshake_class.value,
            (scan.class_counts.get(handshake_class, 0) / reachable) if reachable else 0.0,
        )
        for handshake_class in FUNNEL_CLASSES
    )
    exceeding = sum(scan.amp_factor_counts.values())
    amplification_mean = (
        sum(factor * count for factor, count in scan.amp_factor_counts.items()) / exceeding
        if exceeding
        else 0.0
    )
    amplification_max = max(scan.amp_factor_counts) if scan.amp_factor_counts else 0.0
    rescue_share = (
        (scan.synth_below_compressed - scan.synth_below_uncompressed) / scan.synth_count
        if scan.synth_count
        else 0.0
    )
    return ScenarioOutcome(
        scenario=scenario,
        population_size=scan.deployment_count,
        analysis_initial_size=(
            scenario.analysis_initial_size
            if scenario.analysis_initial_size is not None
            else DEFAULT_ANALYSIS_INITIAL_SIZE
        ),
        quic_count=scan.quic_count,
        reachable_count=reachable,
        class_shares=class_shares,
        exceeding_share=(exceeding / reachable) if reachable else 0.0,
        amplification_median=_weighted_median(scan.amp_factor_counts),
        amplification_mean=amplification_mean,
        amplification_max=amplification_max,
        compression_rescue_share=rescue_share,
    )


@dataclass(frozen=True)
class GridComparison:
    """A grid sweep's outcomes, renderable as one delta table.

    One row per grid member, in grid order; every row after the first
    carries its delta against the first, the reference.  Members with the
    :attr:`~repro.scenarios.spec.ScenarioSpec.compression_adoption` knob set
    are labelled by their adoption fraction (the ``compression-adoption``
    grid reads as an adoption curve); any other member by its scenario name.
    """

    grid_name: str
    population_size: int
    seed: int
    outcomes: Tuple[ScenarioOutcome, ...]

    @staticmethod
    def _label(outcome: ScenarioOutcome) -> str:
        adoption = outcome.scenario.compression_adoption
        if adoption is not None:
            return f"{adoption:.0%}"
        return outcome.scenario.name

    @staticmethod
    def _columns(outcome: ScenarioOutcome) -> List[Tuple[str, float, str]]:
        """``(metric label, value, kind)`` cells of one row.

        ``kind`` is ``"bytes"``, ``"count"``, ``"share"`` or ``"factor"`` and
        selects the cell formatting.
        """
        columns = [
            ("client Initial", float(outcome.analysis_initial_size), "bytes"),
            ("QUIC services", float(outcome.quic_count), "count"),
            ("reachable", float(outcome.reachable_count), "count"),
        ]
        columns.extend(
            (f"{label} share", share, "share") for label, share in outcome.class_shares
        )
        columns.extend(
            [
                ("exceeds 3x limit", outcome.exceeding_share, "share"),
                ("median amp factor", outcome.amplification_median, "factor"),
                ("mean amp factor", outcome.amplification_mean, "factor"),
                ("max amp factor", outcome.amplification_max, "factor"),
                ("compression rescue", outcome.compression_rescue_share, "share"),
            ]
        )
        return columns

    @staticmethod
    def _cell(value: float, reference: Optional[float], kind: str) -> str:
        """One rendered cell.  Shares and factors show two decimals, and their
        delta is taken between the two displayed values: "(=)" marks exactly
        the cells that read the same as the reference cell."""
        if kind in ("count", "bytes"):
            text = f"{int(value)}" + (" B" if kind == "bytes" else "")
            if reference is not None and value != reference:
                text += f" ({int(value - reference):+d})"
            return text
        scale, text, unit = (
            (100.0, f"{value:7.2%}", "pp") if kind == "share" else (1.0, f"{value:6.2f}x", "")
        )
        if reference is not None:
            delta = float(f"{value * scale:.2f}") - float(f"{reference * scale:.2f}")
            text += f" ({delta:+.2f}{unit})" if abs(delta) >= 0.005 else " (=)"
        return text

    def render_text(self) -> str:
        """The outcome table: one row per member, deltas vs the first."""
        rows = [self._columns(outcome) for outcome in self.outcomes]
        header = ["member", *(label for label, _, _ in rows[0])]
        body = [
            [self._label(outcome)]
            + [
                self._cell(value, None if position == 0 else reference, kind)
                for (_, value, kind), (_, reference, _) in zip(row, rows[0])
            ]
            for position, (outcome, row) in enumerate(zip(self.outcomes, rows))
        ]

        widths = [
            max(len(row[column]) for row in [header] + body)
            for column in range(len(header))
        ]
        title = (
            f"Scenario grid {self.grid_name!r} — {self.population_size} domains, "
            f"seed {self.seed} (deltas vs {self.outcomes[0].scenario.name})"
        )
        rule = ["-" * width for width in widths]
        lines = [title]
        for row in (header, rule, *body):
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)


def compare_grid(
    grid,
    size: int = 1200,
    seed: int = 2022,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    scan_backend: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    skeleton_cache_dir: Optional[str] = None,
) -> GridComparison:
    """Sweep a scenario grid in one shared-generation pass and tabulate it.

    ``grid`` is a :class:`~repro.scenarios.grid.ScenarioGrid` or anything
    :func:`~repro.scenarios.grid.load_grid` resolves (a built-in grid name, a
    grid JSON file, a comma-separated scenario list).  Every member scans the
    same ``size``/``seed`` population, so each delta is attributable to the
    scenario alone.  Pass ``checkpoint_dir``/``resume`` to make long sweeps
    durable at ``(shard, scenario)`` granularity; ``progress`` receives one
    line per reduced shard visit.
    """
    from ..scanners.streaming import DEFAULT_SHARD_SIZE, run_streaming_grid_scan
    from ..webpki.population import PopulationConfig
    from .grid import ScenarioGrid, load_grid

    if not isinstance(grid, ScenarioGrid):
        grid = load_grid(str(grid))
    scans = run_streaming_grid_scan(
        PopulationConfig(size=size, seed=seed),
        grid,
        workers=workers if workers is not None else 1,
        shard_size=shard_size if shard_size is not None else DEFAULT_SHARD_SIZE,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        scan_backend=scan_backend,
        progress=progress,
        skeleton_cache_dir=skeleton_cache_dir,
    )
    return GridComparison(
        grid_name=grid.name,
        population_size=size,
        seed=seed,
        outcomes=tuple(
            outcome_from_results(scenario, scans[scenario.name]) for scenario in grid
        ),
    )
