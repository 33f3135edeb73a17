"""Figure 7: the top-10 parent certificate chains and their sizes.

Services are grouped by the *parent chain* they deliver (all certificates
above the leaf).  For each of the top-10 groups the figure shows the per-depth
certificate sizes, the median leaf size and the largest observed leaf, set
against the common amplification limits.  The paper highlights the strong
consolidation among QUIC services (top-10 chains cover 96.5 %) versus
HTTPS-only services (72 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...core.limits import COMMON_AMPLIFICATION_LIMITS
from ...webpki.deployment import DomainDeployment
from ..stats import median


@dataclass(frozen=True)
class ParentChainRow:
    """One row (one parent chain) of Figure 7."""

    parent_chain: Tuple[str, ...]
    share: float
    service_count: int
    parent_sizes_by_depth: Tuple[int, ...]
    median_leaf_size: int
    max_leaf_size: int

    @property
    def parent_chain_size(self) -> int:
        return sum(self.parent_sizes_by_depth)

    @property
    def typical_total_size(self) -> int:
        """Parent chain plus the median leaf (the paper's white + yellow boxes)."""
        return self.parent_chain_size + self.median_leaf_size

    def exceeds_limit(self, limit_bytes: int) -> bool:
        return self.typical_total_size > limit_bytes

    @property
    def label(self) -> str:
        return " / ".join(self.parent_chain)


@dataclass(frozen=True)
class TopParentChainsFigure:
    """Top-10 parent chains for one service group (7a: QUIC, 7b: HTTPS-only)."""

    group_label: str
    rows: Tuple[ParentChainRow, ...]
    total_services: int

    @property
    def top10_coverage(self) -> float:
        return sum(row.share for row in self.rows)

    def rows_exceeding(self, limit_bytes: int) -> int:
        return sum(1 for row in self.rows if row.exceeds_limit(limit_bytes))

    def render_text(self) -> str:
        lines = [
            f"Figure 7 ({self.group_label}): top-{len(self.rows)} parent chains over "
            f"{self.total_services} services (coverage {self.top10_coverage:.1%})"
        ]
        for index, row in enumerate(self.rows, start=1):
            limit_markers = "".join(
                "!" if row.exceeds_limit(limit) else "." for limit in COMMON_AMPLIFICATION_LIMITS
            )
            lines.append(
                f"  {index:>2d}. {row.share:6.2%}  parent={row.parent_chain_size:5d} B  "
                f"median leaf={row.median_leaf_size:5d} B  max leaf={row.max_leaf_size:5d} B "
                f"[{limit_markers}]  {row.label}"
            )
        return "\n".join(lines)


@dataclass
class ParentChainStats:
    """Mergeable per-parent-chain aggregate for the streaming reduction.

    ``first_index`` is the global deployment index of the group's first member
    — merging keeps the minimum, so the merged ``parent_sizes_by_depth`` and
    the ranking's tie-break both follow first occurrence in deployment order.
    """

    count: int
    leaf_size_counts: Dict[int, int]
    first_index: int
    parent_sizes: Tuple[int, ...]

    def merge(self, other: "ParentChainStats") -> None:
        self.count += other.count
        for size, multiplicity in other.leaf_size_counts.items():
            self.leaf_size_counts[size] = self.leaf_size_counts.get(size, 0) + multiplicity
        if other.first_index < self.first_index:
            self.first_index = other.first_index
            self.parent_sizes = other.parent_sizes


def accumulate_groups(
    deployments: Sequence[DomainDeployment],
    groups: Dict[Tuple[str, ...], ParentChainStats],
    index_offset: int,
) -> int:
    """Fold deployments into per-parent-chain stats; returns the group total.

    ``index_offset`` is the global index of ``deployments[0]`` so first-member
    bookkeeping stays consistent across shards.
    """
    total = 0
    for position, deployment in enumerate(deployments):
        chain = deployment.delivered_chain
        if chain is None or not chain.is_correctly_ordered():
            continue
        total += 1
        key = chain.parent_chain_key()
        stats = groups.get(key)
        if stats is None:
            groups[key] = ParentChainStats(
                count=1,
                leaf_size_counts={chain.leaf_size: 1},
                first_index=index_offset + position,
                parent_sizes=tuple(chain.sizes_by_depth()[1:]),
            )
        else:
            stats.count += 1
            stats.leaf_size_counts[chain.leaf_size] = (
                stats.leaf_size_counts.get(chain.leaf_size, 0) + 1
            )
    return total


def fold_group_member(
    groups: Dict[Tuple[str, ...], ParentChainStats],
    key: Tuple[str, ...],
    leaf_size: int,
    global_index: int,
    parent_sizes: Tuple[int, ...],
) -> None:
    """Fold one pre-resolved chain into its parent-chain group.

    The columnar backend computes ``key``/``parent_sizes`` once per distinct
    parent tuple and calls this per chain in deployment order, so
    ``first_index`` and the first-member ``parent_sizes`` keep exactly the
    semantics of :func:`accumulate_groups`.
    """
    stats = groups.get(key)
    if stats is None:
        groups[key] = ParentChainStats(
            count=1,
            leaf_size_counts={leaf_size: 1},
            first_index=global_index,
            parent_sizes=parent_sizes,
        )
    else:
        stats.count += 1
        stats.leaf_size_counts[leaf_size] = stats.leaf_size_counts.get(leaf_size, 0) + 1


def compute_from_groups(
    groups: Dict[Tuple[str, ...], ParentChainStats],
    group_label: str,
    total: int,
    top_n: int = 10,
) -> TopParentChainsFigure:
    """Rank the parent-chain groups and build the top-N rows.

    Groups rank by service count; ties keep first occurrence in deployment
    order (the paper excludes incorrectly ordered chains, which
    :func:`accumulate_groups` never folds in).
    """
    ordered = sorted(groups.items(), key=lambda item: item[1].first_index)
    ranked = sorted(ordered, key=lambda item: item[1].count, reverse=True)[:top_n]
    rows: List[ParentChainRow] = []
    for key, stats in ranked:
        leaf_sizes = [
            size
            for size in sorted(stats.leaf_size_counts)
            for _ in range(stats.leaf_size_counts[size])
        ]
        rows.append(
            ParentChainRow(
                parent_chain=key,
                share=stats.count / total if total else 0.0,
                service_count=stats.count,
                parent_sizes_by_depth=stats.parent_sizes,
                median_leaf_size=int(median(leaf_sizes)),
                max_leaf_size=leaf_sizes[-1],
            )
        )
    return TopParentChainsFigure(group_label=group_label, rows=tuple(rows), total_services=total)
