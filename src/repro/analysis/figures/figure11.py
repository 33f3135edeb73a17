"""Figure 11: per-host-octet amplification at the Meta PoP, before/after disclosure.

Mean amplification factor per host octet of the Meta /24, measured before the
responsible disclosure (August 2022) and after (October 2022).  The paper
shows a drop from up to ≈28× to a homogeneous ≈5× — still above the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ...scanners.zmap import ZmapProbeResult
from ..stats import mean


@dataclass(frozen=True)
class MetaPerHostAmplification:
    """Mean amplification per host octet for one measurement epoch."""

    epoch: str
    per_octet: Dict[int, float]
    domains: Dict[int, str]

    def octets(self) -> Tuple[int, ...]:
        return tuple(sorted(self.per_octet))

    @property
    def mean_amplification(self) -> float:
        return mean(self.per_octet.values())

    @property
    def max_amplification(self) -> float:
        return max(self.per_octet.values(), default=0.0)

    def share_above(self, factor: float = 3.0) -> float:
        if not self.per_octet:
            return 0.0
        return sum(1 for value in self.per_octet.values() if value > factor) / len(self.per_octet)


@dataclass(frozen=True)
class MetaDisclosureComparison:
    """Figure 11(a) versus Figure 11(b)."""

    before: MetaPerHostAmplification
    after: MetaPerHostAmplification

    @property
    def improvement_factor(self) -> float:
        if self.after.max_amplification == 0:
            return 0.0
        return self.before.max_amplification / self.after.max_amplification

    def render_text(self) -> str:
        return (
            "Figure 11: Meta per-host amplification before/after disclosure\n"
            f"  before: mean={self.before.mean_amplification:5.1f}x  "
            f"max={self.before.max_amplification:5.1f}x  hosts={len(self.before.per_octet)}\n"
            f"  after:  mean={self.after.mean_amplification:5.1f}x  "
            f"max={self.after.max_amplification:5.1f}x  hosts={len(self.after.per_octet)}\n"
            f"  max amplification improved by {self.improvement_factor:.1f}x; "
            f"still above 3x for {self.after.share_above(3.0):.0%} of hosts"
        )


def _per_epoch(results: Sequence[ZmapProbeResult], epoch: str) -> MetaPerHostAmplification:
    per_octet: Dict[int, float] = {}
    domains: Dict[int, str] = {}
    for result in results:
        if not result.responded or result.bytes_received <= 150:
            continue
        per_octet[result.host_octet] = result.amplification_factor
        if result.domain:
            domains[result.host_octet] = result.domain
    return MetaPerHostAmplification(epoch=epoch, per_octet=per_octet, domains=domains)


def compute(
    before: Sequence[ZmapProbeResult], after: Sequence[ZmapProbeResult]
) -> MetaDisclosureComparison:
    return MetaDisclosureComparison(
        before=_per_epoch(before, "August 2022 (before disclosure)"),
        after=_per_epoch(after, "October 2022 (after disclosure)"),
    )
