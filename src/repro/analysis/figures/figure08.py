"""Figure 8: mean certificate field sizes by certificate type.

Certificates of QUIC domains are split into leaf / non-leaf and into chains of
at most 4000 bytes versus larger chains; for each of the four groups the mean
size of every field is reported.  The paper's takeaway: for large chains the
public-key and signature sections of *non-leaf* certificates dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ...x509.field_sizes import CertificateFieldSizes, mean_from_sums, measure_field_sizes
from ...webpki.deployment import DomainDeployment

#: The chain-size threshold the paper uses to separate "large" chains.
CHAIN_SIZE_THRESHOLD = 4000

GROUPS = (
    ("<=4000, Non-leaf", False, False),
    ("<=4000, Leaf", True, False),
    (">4000, Non-leaf", False, True),
    (">4000, Leaf", True, True),
)


@dataclass(frozen=True)
class FieldSizesByCertType:
    """Mean field sizes for each (leaf?, large-chain?) group."""

    means: Dict[str, CertificateFieldSizes]
    counts: Dict[str, int]
    threshold: int = CHAIN_SIZE_THRESHOLD

    def group(self, label: str) -> CertificateFieldSizes:
        return self.means[label]

    @property
    def large_chain_nonleaf_heaviest(self) -> bool:
        """The paper's claim: for large chains, the public-key and signature
        sections of *non-leaf* certificates carry the biggest load."""
        def key_and_signature(label: str) -> int:
            sizes = self.means[label]
            return sizes.public_key_info + sizes.signature

        heaviest = key_and_signature(">4000, Non-leaf")
        return all(
            heaviest >= key_and_signature(label)
            for label, _, _ in GROUPS
            if label != ">4000, Non-leaf"
        )

    def render_text(self) -> str:
        lines = ["Figure 8: mean certificate field sizes by certificate type (QUIC domains)"]
        for label, _, _ in GROUPS:
            sizes = self.means[label]
            lines.append(
                f"  {label:<18s} n={self.counts[label]:>6d}  subject={sizes.subject:4d}  "
                f"issuer={sizes.issuer:4d}  spki={sizes.public_key_info:4d}  "
                f"ext={sizes.extensions:4d}  sig={sizes.signature:4d}  total={sizes.total:5d}"
            )
        return "\n".join(lines)


FIELD_SUM_KEYS = (
    "subject", "issuer", "public_key_info", "extensions", "signature", "other", "total",
)


def accumulate_field_sums(
    quic_deployments: Sequence[DomainDeployment],
    sums: Dict[str, Dict[str, int]],
    counts: Dict[str, int],
) -> None:
    """Fold QUIC deployments into per-group integer field-size sums."""
    for deployment in quic_deployments:
        chain = deployment.delivered_chain
        if chain is None:
            continue
        is_large = chain.total_size > CHAIN_SIZE_THRESHOLD
        for index, certificate in enumerate(chain):
            is_leaf = index == 0
            for label, wants_leaf, wants_large in GROUPS:
                if wants_leaf == is_leaf and wants_large == is_large:
                    sizes = measure_field_sizes(certificate)
                    group_sums = sums[label]
                    for key in FIELD_SUM_KEYS:
                        group_sums[key] += getattr(sizes, key)
                    counts[label] += 1
                    break


def accumulate_row_sums(
    label: str,
    row: Tuple[int, ...],
    multiplicity: int,
    sums: Dict[str, Dict[str, int]],
    counts: Dict[str, int],
) -> None:
    """Fold one deduplicated field-size row into a group, scaled by multiplicity.

    ``row`` is a :func:`~repro.x509.field_sizes.field_size_row` tuple (same
    order as :data:`FIELD_SUM_KEYS`); adding ``value * multiplicity`` to the
    integer sums equals ``multiplicity`` passes of
    :func:`accumulate_field_sums` over the same certificate.
    """
    group_sums = sums[label]
    for key, value in zip(FIELD_SUM_KEYS, row):
        group_sums[key] += value * multiplicity
    counts[label] += multiplicity


def empty_field_sums() -> Tuple[Dict[str, Dict[str, int]], Dict[str, int]]:
    """Fresh zeroed accumulators for :func:`accumulate_field_sums`."""
    return (
        {label: {key: 0 for key in FIELD_SUM_KEYS} for label, _, _ in GROUPS},
        {label: 0 for label, _, _ in GROUPS},
    )


def compute_from_sums(
    sums: Dict[str, Dict[str, int]], counts: Dict[str, int]
) -> FieldSizesByCertType:
    """Mean field sizes per group from the integer field-size sums."""
    return FieldSizesByCertType(
        means={label: mean_from_sums(sums[label], counts[label]) for label, _, _ in GROUPS},
        counts=dict(counts),
    )
