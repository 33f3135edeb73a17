"""Figure 13: handshake classification per Tranco rank group.

For each 100k rank group, the share of QUIC services in each handshake class
(at the 1362-byte Initial).  The paper finds the shares mostly stable across
groups, with 1-RTT handshakes noticeably more common only in the top group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...quic.handshake import HandshakeClass
from ..dataset import Column, Table

CLASS_ORDER = (
    HandshakeClass.AMPLIFICATION,
    HandshakeClass.MULTI_RTT,
    HandshakeClass.RETRY,
    HandshakeClass.ONE_RTT,
)


@dataclass(frozen=True)
class RankGroupHandshakeClasses:
    """Per-rank-group shares of each handshake class."""

    group_labels: Tuple[str, ...]
    shares: Dict[str, Dict[HandshakeClass, float]]
    group_counts: Dict[str, int]

    def share(self, group_label: str, handshake_class: HandshakeClass) -> float:
        return self.shares.get(group_label, {}).get(handshake_class, 0.0)

    def top_group_label(self) -> str:
        return self.group_labels[0] if self.group_labels else ""

    def one_rtt_share_top_vs_rest(self) -> Tuple[float, float]:
        """The paper's observation: 1-RTT is more common among the top 100k."""
        if not self.group_labels:
            return 0.0, 0.0
        top = self.share(self.group_labels[0], HandshakeClass.ONE_RTT)
        rest = [
            self.share(label, HandshakeClass.ONE_RTT) for label in self.group_labels[1:]
        ]
        return top, (sum(rest) / len(rest) if rest else 0.0)

    def as_table(self) -> Table:
        table = Table(
            [
                Column("rank_group"),
                Column("amplification", ".2%"),
                Column("multi_rtt", ".2%"),
                Column("retry", ".2%"),
                Column("one_rtt", ".2%"),
                Column("services"),
            ]
        )
        for label in self.group_labels:
            table.add_row(
                label,
                self.share(label, HandshakeClass.AMPLIFICATION),
                self.share(label, HandshakeClass.MULTI_RTT),
                self.share(label, HandshakeClass.RETRY),
                self.share(label, HandshakeClass.ONE_RTT),
                self.group_counts.get(label, 0),
            )
        return table

    def render_text(self) -> str:
        return self.as_table().render_text("Figure 13: handshake classification per rank group")


#: Stable wire codes for the four reachable handshake classes.
CLASS_CODES: Dict[HandshakeClass, int] = {
    handshake_class: index for index, handshake_class in enumerate(CLASS_ORDER)
}


def compute_from_series(
    ranks: Sequence[int],
    class_codes: bytes,
    group_count: int = 10,
) -> RankGroupHandshakeClasses:
    """Split the classified handshakes into ``group_count`` rank groups.

    ``ranks`` and ``class_codes`` are the parallel compact series of the
    reachable, classified handshake observations, in observation order.
    Generated populations are scanned in ascending rank order; any other
    order (a hand-assembled population) is sorted by rank first.
    """
    from bisect import bisect_left

    if any(later < earlier for earlier, later in zip(ranks, ranks[1:])):
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        ranks = [ranks[index] for index in order]
        class_codes = bytes(class_codes[index] for index in order)
    if not ranks:
        return RankGroupHandshakeClasses((), {}, {})
    max_rank = max(ranks)
    group_size = max(1, math.ceil(max_rank / group_count))

    labels: List[str] = []
    shares: Dict[str, Dict[HandshakeClass, float]] = {}
    counts: Dict[str, int] = {}
    for group_index in range(group_count):
        start = group_index * group_size + 1
        end = (group_index + 1) * group_size + 1
        lo = bisect_left(ranks, start)
        hi = bisect_left(ranks, end)
        if lo == hi:
            continue
        label = f"[{start}, {end})"
        window = class_codes[lo:hi]
        labels.append(label)
        counts[label] = hi - lo
        shares[label] = {
            handshake_class: window.count(CLASS_CODES[handshake_class]) / (hi - lo)
            for handshake_class in CLASS_ORDER
        }
    return RankGroupHandshakeClasses(
        group_labels=tuple(labels), shares=shares, group_counts=counts
    )
