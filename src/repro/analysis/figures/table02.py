"""Table 2: crypto algorithms and key lengths in use.

Relative shares of RSA-2048/4096 and ECDSA-256/384 keys, split into leaf and
non-leaf certificates and into QUIC versus HTTPS-only services.  The paper
finds that HTTPS-only services depend heavily on RSA while QUIC leaves are
predominantly ECDSA P-256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ...webpki.deployment import DomainDeployment
from ...x509.keys import KeyAlgorithm
from ..dataset import Column, Table

KEY_COLUMNS = (
    KeyAlgorithm.RSA_2048,
    KeyAlgorithm.RSA_4096,
    KeyAlgorithm.ECDSA_P256,
    KeyAlgorithm.ECDSA_P384,
)


@dataclass(frozen=True)
class CryptoAlgorithmShares:
    """Shares per (service group, certificate type, key algorithm)."""

    shares: Dict[Tuple[str, str, KeyAlgorithm], float]
    counts: Dict[Tuple[str, str], int]

    def share(self, service_group: str, cert_type: str, algorithm: KeyAlgorithm) -> float:
        return self.shares.get((service_group, cert_type, algorithm), 0.0)

    def ecdsa_share(self, service_group: str, cert_type: str) -> float:
        return self.share(service_group, cert_type, KeyAlgorithm.ECDSA_P256) + self.share(
            service_group, cert_type, KeyAlgorithm.ECDSA_P384
        )

    def rsa_share(self, service_group: str, cert_type: str) -> float:
        return self.share(service_group, cert_type, KeyAlgorithm.RSA_2048) + self.share(
            service_group, cert_type, KeyAlgorithm.RSA_4096
        )

    def as_table(self) -> Table:
        table = Table(
            [
                Column("service"),
                Column("certificate"),
                Column("rsa_2048", ".1%"),
                Column("rsa_4096", ".1%"),
                Column("ecdsa_256", ".1%"),
                Column("ecdsa_384", ".1%"),
            ]
        )
        for service_group in ("QUIC", "HTTPS-only"):
            for cert_type in ("Non-leaf", "Leaf"):
                table.add_row(
                    service_group,
                    cert_type,
                    self.share(service_group, cert_type, KeyAlgorithm.RSA_2048),
                    self.share(service_group, cert_type, KeyAlgorithm.RSA_4096),
                    self.share(service_group, cert_type, KeyAlgorithm.ECDSA_P256),
                    self.share(service_group, cert_type, KeyAlgorithm.ECDSA_P384),
                )
        return table

    def render_text(self) -> str:
        return self.as_table().render_text("Table 2: crypto algorithms and key lengths in use")


def accumulate_key_algorithms(
    service_group: str,
    deployments: Sequence[DomainDeployment],
    counters: Dict[Tuple[str, str, KeyAlgorithm], int],
    totals: Dict[Tuple[str, str], int],
) -> None:
    """Fold one service group's deployments into the Table 2 counters."""
    for deployment in deployments:
        chain = deployment.delivered_chain
        if chain is None:
            continue
        for index, certificate in enumerate(chain):
            cert_type = "Leaf" if index == 0 else "Non-leaf"
            key = (service_group, cert_type)
            totals[key] = totals.get(key, 0) + 1
            algo_key = (service_group, cert_type, certificate.key_algorithm)
            counters[algo_key] = counters.get(algo_key, 0) + 1


def accumulate_algorithm_counts(
    service_group: str,
    cert_type: str,
    algorithm_counts: Dict[KeyAlgorithm, int],
    chain_multiplicity: int,
    counters: Dict[Tuple[str, str, KeyAlgorithm], int],
    totals: Dict[Tuple[str, str], int],
) -> None:
    """Fold deduplicated per-algorithm counts, scaled by chain multiplicity.

    ``algorithm_counts`` maps each key algorithm to its occurrence count
    within one distinct certificate tuple (e.g. a shared parent chain);
    ``chain_multiplicity`` is how many delivered chains carry that tuple.
    Equivalent to ``chain_multiplicity`` passes of
    :func:`accumulate_key_algorithms` over the same certificates.
    """
    if not chain_multiplicity or not algorithm_counts:
        return
    key = (service_group, cert_type)
    certificates = 0
    for algorithm, count in algorithm_counts.items():
        scaled = count * chain_multiplicity
        algo_key = (service_group, cert_type, algorithm)
        counters[algo_key] = counters.get(algo_key, 0) + scaled
        certificates += scaled
    totals[key] = totals.get(key, 0) + certificates


def compute_from_counters(
    counters: Dict[Tuple[str, str, KeyAlgorithm], int],
    totals: Dict[Tuple[str, str], int],
) -> CryptoAlgorithmShares:
    """Shares per (service group, certificate type) from the merged counters."""
    shares: Dict[Tuple[str, str, KeyAlgorithm], float] = {}
    for (service_group, cert_type, algorithm), count in counters.items():
        total = totals[(service_group, cert_type)]
        shares[(service_group, cert_type, algorithm)] = count / total if total else 0.0
    return CryptoAlgorithmShares(shares=shares, counts=dict(totals))
