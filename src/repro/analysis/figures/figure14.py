"""Figure 14 (Appendix E): cruise-liner certificates among QUIC services.

Scatter of leaf certificate size against the byte share of subject alternative
names.  The paper finds SANs below 10 % of the bytes for most leaves, the top
1 % of leaves by SAN share at ≥28.9 %, and only ≈0.1 % of leaves that combine
a high SAN share with a size above a common amplification limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ...core.limits import LARGER_COMMON_LIMIT
from ..stats import percentile, share


@dataclass(frozen=True)
class CruiseLinerFigure:
    """Per-leaf (size, SAN byte share) points plus the headline shares."""

    points: Tuple[Tuple[int, float], ...]  # (leaf size, SAN byte share)
    top1pct_san_share_threshold: float
    share_high_san_and_over_limit: float
    limit_bytes: int

    @property
    def leaf_count(self) -> int:
        return len(self.points)

    @property
    def share_san_below_10pct(self) -> float:
        return share(self.points, lambda p: p[1] < 0.10)

    def render_text(self) -> str:
        return (
            f"Figure 14: SAN byte share of {self.leaf_count} QUIC leaf certificates\n"
            f"  leaves with SANs below 10% of bytes: {self.share_san_below_10pct:.1%}\n"
            f"  top-1% SAN-share threshold: {self.top1pct_san_share_threshold:.1%}\n"
            f"  cruise liners (high SAN share AND above {self.limit_bytes} B): "
            f"{self.share_high_san_and_over_limit:.2%}"
        )


def compute_from_points(
    leaf_sizes: Sequence[int],
    san_shares: Sequence[float],
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CruiseLinerFigure:
    """The scatter and headline shares from the compact per-leaf series.

    ``leaf_sizes`` / ``san_shares`` are parallel, in deployment order.
    """
    points = tuple(zip(leaf_sizes, san_shares))
    if not points:
        return CruiseLinerFigure((), 0.0, 0.0, limit_bytes)
    threshold = percentile(san_shares, 0.99)
    high_and_large = share(
        points, lambda p: p[1] >= threshold and p[0] > limit_bytes
    )
    return CruiseLinerFigure(
        points=points,
        top1pct_san_share_threshold=threshold,
        share_high_san_and_over_limit=high_and_large,
        limit_bytes=limit_bytes,
    )
