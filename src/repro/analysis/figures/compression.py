"""§4.2 "Compression helps": the synthetic certificate-compression experiment.

Combines the synthetic study (compress every collected chain) with the
in-the-wild observations from the compression scanner, mirroring the paper's
comparison of a ≈65 % median synthetic rate with a ≈73 % mean rate measured
against real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ...core.compression_study import CompressionStudyResult, study_from_reduction
from ...core.limits import LARGER_COMMON_LIMIT
from ...tls.cert_compression import CertificateCompressionAlgorithm


@dataclass(frozen=True)
class CompressionExperiment:
    """Synthetic study plus wild measurements."""

    synthetic: CompressionStudyResult
    wild_mean_rate: Optional[float]
    wild_support_share: float
    limit_bytes: int

    @property
    def median_synthetic_rate(self) -> float:
        return self.synthetic.median_compression_rate

    @property
    def share_below_limit_compressed(self) -> float:
        return self.synthetic.share_below_limit_compressed

    def render_text(self) -> str:
        wild = f"{self.wild_mean_rate:.0%}" if self.wild_mean_rate is not None else "n/a"
        return (
            "Compression experiment (§4.2)\n"
            f"  synthetic median rate: {self.median_synthetic_rate:.0%} over "
            f"{self.synthetic.chain_count} chains\n"
            f"  chains below {self.limit_bytes} B uncompressed: "
            f"{self.synthetic.share_below_limit_uncompressed:.1%}\n"
            f"  chains below {self.limit_bytes} B compressed:   "
            f"{self.synthetic.share_below_limit_compressed:.1%}\n"
            f"  mean rate measured in the wild (brotli): {wild}\n"
            f"  services supporting brotli: {self.wild_support_share:.1%}"
        )


def compute_from_reduction(
    synthetic_rates: Sequence[float],
    synthetic_below_limit_uncompressed: int,
    synthetic_below_limit_compressed: int,
    synthetic_chain_count: int,
    wild_rates: Sequence[float],
    wild_support_count: int,
    scanned_services: int,
    algorithm: CertificateCompressionAlgorithm = CertificateCompressionAlgorithm.BROTLI,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionExperiment:
    """The experiment from the reduced synthetic-study and wild accumulators.

    ``synthetic_rates`` and ``wild_rates`` are in deployment order, so the
    synthetic median and the wild mean are independent of how the campaign
    was sharded.
    """
    synthetic = study_from_reduction(
        algorithm,
        synthetic_rates,
        synthetic_below_limit_uncompressed,
        synthetic_below_limit_compressed,
        synthetic_chain_count,
        limit_bytes,
    )
    ordered_wild = list(wild_rates)
    wild_rate = sum(ordered_wild) / len(ordered_wild) if ordered_wild else None
    support = wild_support_count / scanned_services if scanned_services else 0.0
    return CompressionExperiment(
        synthetic=synthetic,
        wild_mean_rate=wild_rate,
        wild_support_share=support,
        limit_bytes=limit_bytes,
    )
