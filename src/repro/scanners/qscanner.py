"""Certificate collection over QUIC (QScanner equivalent, §3.2).

quicreach classifies handshakes but does not expose the certificates; the
paper rescans with QScanner to fetch the TLS chains served over QUIC and
compares them to the chains served over HTTPS for the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.network import UdpNetwork
from ..x509.chain import CertificateChain, chain_fingerprint


@dataclass(frozen=True)
class QuicCertificateRecord:
    """The chain a QUIC service delivered."""

    domain: str
    chain: CertificateChain

    @property
    def fingerprint(self) -> str:
        return chain_fingerprint(self.chain)


@dataclass(frozen=True)
class CertificateComparison:
    """Comparison of the chains served over QUIC and over HTTPS (§3.2)."""

    total_compared: int
    identical: int
    different: int


class QScanner:
    """Fetches certificate chains over QUIC from the simulated network."""

    def __init__(self, network: UdpNetwork) -> None:
        self._network = network

    def fetch(self, domain: str) -> Optional[QuicCertificateRecord]:
        host = self._network.host_for_domain(domain)
        if host is None:
            return None
        return QuicCertificateRecord(domain=domain.lower(), chain=host.chain)

    def fetch_many(self, domains: Sequence[str]) -> List[QuicCertificateRecord]:
        records = []
        for domain in domains:
            record = self.fetch(domain)
            if record is not None:
                records.append(record)
        return records

    def compare_with_https(
        self,
        quic_records: Sequence[QuicCertificateRecord],
        https_chains: Dict[str, CertificateChain],
    ) -> CertificateComparison:
        """How often QUIC and HTTPS serve the same chain for the same name."""
        total = identical = 0
        for record in quic_records:
            https_chain = https_chains.get(record.domain)
            if https_chain is None:
                continue
            total += 1
            if chain_fingerprint(https_chain) == record.fingerprint:
                identical += 1
        return CertificateComparison(
            total_compared=total, identical=identical, different=total - identical
        )
