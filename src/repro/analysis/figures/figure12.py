"""Figure 12: QUIC and HTTPS-only deployment shares per Tranco rank group.

The paper splits the list into 100k rank groups and finds deployment rates
stable across popularity: ≈21 % QUIC plus ≈59 % additional HTTPS-only names
per group, with a small standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...webpki.deployment import DomainDeployment, ServiceCategory
from ..dataset import Column, Table


@dataclass(frozen=True)
class RankGroupShares:
    """QUIC / HTTPS-only share per rank group."""

    group_labels: Tuple[str, ...]
    quic_shares: Tuple[float, ...]
    https_only_shares: Tuple[float, ...]
    group_sizes: Tuple[int, ...]

    @property
    def mean_quic_share(self) -> float:
        return sum(self.quic_shares) / len(self.quic_shares) if self.quic_shares else 0.0

    @property
    def quic_share_stddev(self) -> float:
        if not self.quic_shares:
            return 0.0
        mean = self.mean_quic_share
        return math.sqrt(sum((s - mean) ** 2 for s in self.quic_shares) / len(self.quic_shares))

    def as_table(self) -> Table:
        table = Table(
            [
                Column("rank_group"),
                Column("quic_share", ".1%"),
                Column("https_only_share", ".1%"),
                Column("names"),
            ]
        )
        for label, quic, https_only, size in zip(
            self.group_labels, self.quic_shares, self.https_only_shares, self.group_sizes
        ):
            table.add_row(label, quic, https_only, size)
        return table

    def render_text(self) -> str:
        text = self.as_table().render_text("Figure 12: service popularity across rank groups")
        return text + (
            f"\n  mean QUIC share {self.mean_quic_share:.1%}, "
            f"stddev {self.quic_share_stddev * 100:.1f} percentage points"
        )


#: Stable wire codes for :class:`ServiceCategory` in streaming reductions.
CATEGORY_CODES: Dict[ServiceCategory, int] = {
    category: index for index, category in enumerate(ServiceCategory)
}

#: Code that pads a rank a category run does not hold (a gap in a
#: hand-assembled population); :func:`compute_from_category_runs` skips it.
RANK_GAP_CODE = 0xFF


def encode_category_run(
    deployments: Sequence[DomainDeployment], empty_start: int
) -> Tuple[int, bytes]:
    """One ``(start_rank, category_codes)`` run over a shard's deployments.

    A generated shard holds consecutive ascending ranks and encodes as one
    code per deployment, in order.  Any other deployment list (a
    hand-assembled population with sparse or unordered ranks) is laid out by
    rank, with :data:`RANK_GAP_CODE` at every rank it does not hold.  An empty
    shard encodes as ``(empty_start, b"")``.
    """
    return encode_category_columns(
        [d.rank for d in deployments], [d.category for d in deployments], empty_start
    )


def encode_category_columns(
    ranks: Sequence[int], categories: Sequence[ServiceCategory], empty_start: int
) -> Tuple[int, bytes]:
    """:func:`encode_category_run` over a shard's rank and category columns."""
    if not ranks:
        return empty_start, b""
    ranks = list(ranks)
    codes = [CATEGORY_CODES[category] for category in categories]
    start = ranks[0]
    if ranks == list(range(start, start + len(ranks))):
        return start, bytes(codes)
    start = min(ranks)
    laid_out = bytearray([RANK_GAP_CODE]) * (max(ranks) - start + 1)
    for rank, code in zip(ranks, codes):
        if laid_out[rank - start] != RANK_GAP_CODE:
            raise ValueError(f"rank {rank} is held by more than one deployment")
        laid_out[rank - start] = code
    return start, bytes(laid_out)


def compute_from_category_runs(
    runs: Sequence[Tuple[int, bytes]],
    group_count: int = 10,
) -> RankGroupShares:
    """Split the ranks into ``group_count`` equal rank groups.

    ``runs`` are ``(start_rank, category_codes)`` byte strings as
    :func:`encode_category_run` lays them out (one per scan shard, in shard
    order), one code per rank from ``start_rank`` on — the shape shard
    summaries carry instead of the deployments themselves.
    """
    if not runs or all(not codes for _, codes in runs):
        return RankGroupShares((), (), (), ())
    max_rank = max(start + len(codes) - 1 for start, codes in runs if codes)
    group_size = max(1, math.ceil(max_rank / group_count))
    quic_code = CATEGORY_CODES[ServiceCategory.QUIC]
    https_only_code = CATEGORY_CODES[ServiceCategory.HTTPS_ONLY]

    labels: List[str] = []
    quic_shares: List[float] = []
    https_shares: List[float] = []
    sizes: List[int] = []
    for group_index in range(group_count):
        start = group_index * group_size + 1
        end = (group_index + 1) * group_size + 1
        members = quic = https_only = 0
        for run_start, codes in runs:
            lo = max(start, run_start) - run_start
            hi = min(end, run_start + len(codes)) - run_start
            if hi <= lo:
                continue
            window = codes[lo:hi]
            members += len(window) - window.count(RANK_GAP_CODE)
            quic += window.count(quic_code)
            https_only += window.count(https_only_code)
        if not members:
            continue
        labels.append(f"[{start}, {end})")
        sizes.append(members)
        quic_shares.append(quic / members)
        https_shares.append(https_only / members)
    return RankGroupShares(
        group_labels=tuple(labels),
        quic_shares=tuple(quic_shares),
        https_only_shares=tuple(https_shares),
        group_sizes=tuple(sizes),
    )
