"""Figure 4: amplification factor during the first RTT of complete handshakes.

The CDF is computed over handshakes that exceeded the anti-amplification
limit; the paper observes that factors remain relatively small, below ≈6×.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cdf import EmpiricalCdf


@dataclass(frozen=True)
class FirstRttAmplificationFigure:
    """CDF of first-RTT amplification factors of limit-exceeding handshakes."""

    cdf: EmpiricalCdf
    service_count: int

    @property
    def median(self) -> float:
        return self.cdf.median

    @property
    def p99(self) -> float:
        return self.cdf.quantile(0.99)

    @property
    def maximum(self) -> float:
        return self.cdf.quantile(1.0) if not self.cdf.is_empty else 0.0

    def share_below(self, factor: float) -> float:
        return self.cdf.probability_at(factor)

    def render_text(self) -> str:
        return (
            f"Figure 4: first-RTT amplification factor over {self.service_count} "
            f"limit-exceeding services\n"
            f"  median={self.median:.2f}x  p99={self.p99:.2f}x  max={self.maximum:.2f}x  "
            f"share below 6x={self.share_below(6.0):.1%}"
        )


def compute_from_counts(factor_counts) -> FirstRttAmplificationFigure:
    """Build the CDF from the reduced amplification-factor counts.

    ``factor_counts`` maps an amplification factor to how often limit-exceeding
    reachable handshakes produced it.
    """
    return FirstRttAmplificationFigure(
        cdf=EmpiricalCdf.from_counts(factor_counts),
        service_count=sum(factor_counts.values()),
    )
