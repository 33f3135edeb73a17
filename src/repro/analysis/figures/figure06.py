"""Figure 6: certificate chain size distributions by QUIC support.

CDFs of delivered-chain sizes for QUIC services versus HTTPS-only services.
The paper reports medians of 2329 bytes (QUIC) and 4022 bytes (HTTPS-only), a
long tail between 18 kB and 38 kB, and 35 % of all chains exceeding the larger
common amplification limit of 3×1357 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from ...core.limits import LARGER_COMMON_LIMIT
from ..cdf import EmpiricalCdf


@dataclass(frozen=True)
class ChainSizeDistributions:
    """The two CDFs plus the headline shares."""

    quic_cdf: EmpiricalCdf
    https_only_cdf: EmpiricalCdf
    limit_bytes: int

    @property
    def quic_median(self) -> float:
        return self.quic_cdf.median

    @property
    def https_only_median(self) -> float:
        return self.https_only_cdf.median

    @property
    def share_exceeding_limit(self) -> float:
        """Share of *all* chains above the larger common amplification limit."""
        total = len(self.quic_cdf) + len(self.https_only_cdf)
        if total == 0:
            return 0.0
        exceeding = (
            len(self.quic_cdf) * (1 - self.quic_cdf.probability_at(self.limit_bytes))
            + len(self.https_only_cdf) * (1 - self.https_only_cdf.probability_at(self.limit_bytes))
        )
        return exceeding / total

    @property
    def quic_maximum(self) -> float:
        return self.quic_cdf.quantile(1.0) if not self.quic_cdf.is_empty else 0.0

    @property
    def https_only_maximum(self) -> float:
        return self.https_only_cdf.quantile(1.0) if not self.https_only_cdf.is_empty else 0.0

    def render_text(self) -> str:
        return (
            "Figure 6: certificate chain sizes by QUIC support\n"
            f"  QUIC services      (n={len(self.quic_cdf)}): median={self.quic_median:,.0f} B, "
            f"max={self.quic_maximum:,.0f} B\n"
            f"  HTTPS-only services(n={len(self.https_only_cdf)}): median={self.https_only_median:,.0f} B, "
            f"max={self.https_only_maximum:,.0f} B\n"
            f"  share of all chains above {self.limit_bytes} B: {self.share_exceeding_limit:.1%}"
        )


def compute_from_counts(
    quic_size_counts,
    https_only_size_counts,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> ChainSizeDistributions:
    """The two CDFs from ``chain size -> multiplicity`` accumulators."""
    return ChainSizeDistributions(
        quic_cdf=EmpiricalCdf.from_counts(quic_size_counts),
        https_only_cdf=EmpiricalCdf.from_counts(https_only_size_counts),
        limit_bytes=limit_bytes,
    )
