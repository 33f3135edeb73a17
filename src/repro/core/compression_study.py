"""The synthetic certificate-compression study of §4.2 ("Compression helps").

The paper compresses every collected certificate chain and reports (i) the
median compression rate (≈65 %) and (ii) the share of chains whose compressed
size stays below the common anti-amplification limit (≈99 %), which would turn
multi-RTT handshakes back into 1-RTT handshakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..tls.cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    compress_certificate_chain,
)
from ..x509.chain import CertificateChain
from .limits import LARGER_COMMON_LIMIT


@dataclass(frozen=True)
class CompressionStudyResult:
    """Aggregate outcome of compressing a set of chains with one algorithm."""

    algorithm: CertificateCompressionAlgorithm
    chain_count: int
    median_compression_rate: float
    mean_compression_rate: float
    share_below_limit_uncompressed: float
    share_below_limit_compressed: float
    limit_bytes: int


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def run_compression_study(
    chains: Iterable[CertificateChain],
    algorithm: CertificateCompressionAlgorithm = CertificateCompressionAlgorithm.BROTLI,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionStudyResult:
    """Compress every chain and summarise rates and limit compliance."""
    rates: List[float] = []
    below_uncompressed = 0
    below_compressed = 0
    count = 0
    for chain in chains:
        result: CompressionResult = compress_certificate_chain(
            [cert.der for cert in chain], algorithm
        )
        rates.append(result.ratio)
        count += 1
        if result.uncompressed_size <= limit_bytes:
            below_uncompressed += 1
        if result.compressed_size <= limit_bytes:
            below_compressed += 1
    if count == 0:
        return CompressionStudyResult(algorithm, 0, 0.0, 0.0, 0.0, 0.0, limit_bytes)
    return CompressionStudyResult(
        algorithm=algorithm,
        chain_count=count,
        median_compression_rate=_median(rates),
        mean_compression_rate=sum(rates) / count,
        share_below_limit_uncompressed=below_uncompressed / count,
        share_below_limit_compressed=below_compressed / count,
        limit_bytes=limit_bytes,
    )


def study_from_reduction(
    algorithm: CertificateCompressionAlgorithm,
    rates: Sequence[float],
    below_limit_uncompressed: int,
    below_limit_compressed: int,
    chain_count: int,
    limit_bytes: int = LARGER_COMMON_LIMIT,
) -> CompressionStudyResult:
    """Rebuild the study summary from streamed per-chain reductions.

    ``rates`` must be in chain (= shard concatenation) order so the mean is
    the identical left-to-right float sum of :func:`run_compression_study`.
    """
    if chain_count == 0:
        return CompressionStudyResult(algorithm, 0, 0.0, 0.0, 0.0, 0.0, limit_bytes)
    ordered_rates = list(rates)
    return CompressionStudyResult(
        algorithm=algorithm,
        chain_count=chain_count,
        median_compression_rate=_median(ordered_rates),
        mean_compression_rate=sum(ordered_rates) / chain_count,
        share_below_limit_uncompressed=below_limit_uncompressed / chain_count,
        share_below_limit_compressed=below_limit_compressed / chain_count,
        limit_bytes=limit_bytes,
    )
