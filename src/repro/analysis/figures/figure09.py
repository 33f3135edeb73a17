"""Figure 9: amplification factors of incomplete (spoofed) handshakes.

Per-hypergiant CDFs of amplification factors computed from telescope
backscatter: all bytes a server sent for one source connection ID divided by
an assumed 1362-byte client Initial.  The paper finds Cloudflare and Google
mostly below 10× while Meta reaches up to 45×.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ...scanners.backscatter import ProviderBackscatter
from ..cdf import EmpiricalCdf


@dataclass(frozen=True)
class BackscatterAmplificationFigure:
    """Per-provider amplification CDFs plus session-duration sanity checks."""

    cdfs: Dict[str, EmpiricalCdf]
    session_counts: Dict[str, int]
    median_durations: Dict[str, float]
    max_durations: Dict[str, float]

    def providers(self) -> Tuple[str, ...]:
        return tuple(sorted(self.cdfs))

    def median(self, provider: str) -> float:
        return self.cdfs[provider].median

    def maximum(self, provider: str) -> float:
        cdf = self.cdfs[provider]
        return cdf.quantile(1.0) if not cdf.is_empty else 0.0

    def share_exceeding(self, provider: str, factor: float = 3.0) -> float:
        return 1.0 - self.cdfs[provider].probability_at(factor)

    def render_text(self) -> str:
        lines = ["Figure 9: amplification factors for incomplete handshakes (backscatter)"]
        for provider in self.providers():
            lines.append(
                f"  {provider:<12s} sessions={self.session_counts[provider]:>5d}  "
                f"median={self.median(provider):5.1f}x  max={self.maximum(provider):5.1f}x  "
                f">3x: {self.share_exceeding(provider):.0%}  "
                f"median session={self.median_durations[provider]:.0f}s"
            )
        return "\n".join(lines)


def compute(backscatter: Dict[str, ProviderBackscatter]) -> BackscatterAmplificationFigure:
    cdfs = {
        provider: EmpiricalCdf.from_values(result.amplification_factors)
        for provider, result in backscatter.items()
    }
    return BackscatterAmplificationFigure(
        cdfs=cdfs,
        session_counts={p: r.session_count for p, r in backscatter.items()},
        median_durations={p: r.median_session_duration_s for p, r in backscatter.items()},
        max_durations={p: r.max_session_duration_s for p, r in backscatter.items()},
    )
