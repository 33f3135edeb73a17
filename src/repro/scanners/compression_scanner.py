"""Certificate-compression support scanner (quiche-with-compression equivalent).

The paper extends Cloudflare's quiche client with the three RFC 8879
algorithms and rescans all QUIC services to learn (i) which algorithms each
service supports and (ii) the compression rate achieved in the wild
(Table 1, §4.2 "Compression helps").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.network import UdpNetwork
from ..tls.cert_compression import (
    CertificateCompressionAlgorithm,
    CompressionResult,
    chain_compression,
)

ALL_ALGORITHMS: Tuple[CertificateCompressionAlgorithm, ...] = (
    CertificateCompressionAlgorithm.ZLIB,
    CertificateCompressionAlgorithm.BROTLI,
    CertificateCompressionAlgorithm.ZSTD,
)


@dataclass(frozen=True)
class CompressionObservation:
    """Per-service compression capabilities and measured rates."""

    domain: str
    supported_algorithms: Tuple[CertificateCompressionAlgorithm, ...]
    uncompressed_chain_size: int
    compressed_sizes: Dict[CertificateCompressionAlgorithm, int]

    @property
    def supports_any(self) -> bool:
        return bool(self.supported_algorithms)

    @property
    def supports_all_three(self) -> bool:
        return set(self.supported_algorithms) == set(ALL_ALGORITHMS)

    def supports(self, algorithm: CertificateCompressionAlgorithm) -> bool:
        return algorithm in self.supported_algorithms

    def compression_rate(self, algorithm: CertificateCompressionAlgorithm) -> Optional[float]:
        """Fraction of bytes removed by ``algorithm`` (None if unsupported)."""
        compressed = self.compressed_sizes.get(algorithm)
        if compressed is None or self.uncompressed_chain_size == 0:
            return None
        return 1.0 - compressed / self.uncompressed_chain_size

    def fits_limit(self, algorithm: CertificateCompressionAlgorithm, limit_bytes: int) -> Optional[bool]:
        compressed = self.compressed_sizes.get(algorithm)
        if compressed is None:
            return None
        return compressed <= limit_bytes


class CompressionScanner:
    """Negotiates RFC 8879 with every QUIC service and records the outcome."""

    def __init__(self, network: UdpNetwork) -> None:
        self._network = network

    def scan(self, domain: str) -> Optional[CompressionObservation]:
        host = self._network.host_for_domain(domain)
        if host is None:
            return None
        supported = tuple(
            algorithm for algorithm in ALL_ALGORITHMS if host.profile.supports_compression(algorithm)
        )
        compressed: Dict[CertificateCompressionAlgorithm, int] = {}
        uncompressed_size = 0
        for algorithm in supported:
            result: CompressionResult = chain_compression(host.chain, algorithm)
            compressed[algorithm] = result.compressed_size
            uncompressed_size = result.uncompressed_size
        if not supported:
            uncompressed_size = sum(len(cert.der) for cert in host.chain)
        return CompressionObservation(
            domain=domain.lower(),
            supported_algorithms=supported,
            uncompressed_chain_size=uncompressed_size,
            compressed_sizes=compressed,
        )

    def scan_many(self, domains: Sequence[str]) -> List[CompressionObservation]:
        observations = []
        for domain in domains:
            observation = self.scan(domain)
            if observation is not None:
                observations.append(observation)
        return observations

    @staticmethod
    def support_share(
        observations: Sequence[CompressionObservation],
        algorithm: CertificateCompressionAlgorithm,
    ) -> float:
        """Share of scanned services supporting ``algorithm`` (Table 1, last column)."""
        if not observations:
            return 0.0
        return sum(1 for o in observations if o.supports(algorithm)) / len(observations)

    @staticmethod
    def mean_compression_rate(
        observations: Sequence[CompressionObservation],
        algorithm: CertificateCompressionAlgorithm,
    ) -> Optional[float]:
        rates = [
            rate
            for rate in (o.compression_rate(algorithm) for o in observations)
            if rate is not None
        ]
        if not rates:
            return None
        return sum(rates) / len(rates)
