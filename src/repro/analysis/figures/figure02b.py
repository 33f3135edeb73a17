"""Figure 2(b): size distribution of X.509 certificate fields.

The paper shows CDFs of the Subject, Issuer, PublicKeyInfo, Extensions and
Signature field sizes over all collected certificates; extensions followed by
signature and public key are the most space-consuming fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ...x509.certificate import Certificate
from ...x509.field_sizes import measure_field_sizes
from ..cdf import EmpiricalCdf

FIELD_NAMES = ("Subject", "Issuer", "PublicKeyInfo", "Extensions", "Signature")


@dataclass(frozen=True)
class FieldSizeDistributions:
    """One CDF per certificate field."""

    cdfs: Dict[str, EmpiricalCdf]
    certificate_count: int

    def median(self, field: str) -> float:
        return self.cdfs[field].median

    def ordering_by_median(self) -> List[str]:
        """Fields ordered by descending median size (the paper's observation)."""
        return sorted(FIELD_NAMES, key=lambda field: self.median(field), reverse=True)

    def render_text(self) -> str:
        lines = [f"Figure 2(b): certificate field size CDFs over {self.certificate_count} certificates"]
        for field in FIELD_NAMES:
            cdf = self.cdfs[field]
            lines.append(
                f"  {field:<14s} median={cdf.median:7.0f} B  p90={cdf.quantile(0.9):7.0f} B  "
                f"max={cdf.quantile(1.0):7.0f} B"
            )
        lines.append("  largest fields by median: " + " > ".join(self.ordering_by_median()[:3]))
        return "\n".join(lines)


def accumulate_field_sizes(
    certificates: Iterable[Certificate], counts: Dict[str, Dict[int, int]]
) -> int:
    """Fold certificates into per-field ``size -> multiplicity`` accumulators.

    The shard reduction calls this in the worker; ``compute_from_counts``
    builds the CDFs from the merged accumulators.  Returns the number of
    certificates folded in.
    """
    folded = 0
    for certificate in certificates:
        sizes = measure_field_sizes(certificate)
        for field, size in (
            ("Subject", sizes.subject),
            ("Issuer", sizes.issuer),
            ("PublicKeyInfo", sizes.public_key_info),
            ("Extensions", sizes.extensions),
            ("Signature", sizes.signature),
        ):
            field_counts = counts[field]
            field_counts[size] = field_counts.get(size, 0) + 1
        folded += 1
    return folded


def accumulate_row_counts(
    rows_with_multiplicity: Iterable, counts: Dict[str, Dict[int, int]]
) -> int:
    """Multiplicity-scaled fold over deduplicated field-size rows.

    ``rows_with_multiplicity`` yields ``(row, multiplicity)`` pairs where
    ``row`` is a :func:`~repro.x509.field_sizes.field_size_row` tuple (the
    first five entries follow :data:`FIELD_NAMES` order).  Folding one row
    scaled by ``m`` equals folding the certificate ``m`` times through
    :func:`accumulate_field_sizes` — the columnar backend's shape-dedup
    contract.  Returns the number of certificates represented.
    """
    folded = 0
    for row, multiplicity in rows_with_multiplicity:
        for field, size in zip(FIELD_NAMES, row):
            field_counts = counts[field]
            field_counts[size] = field_counts.get(size, 0) + multiplicity
        folded += multiplicity
    return folded


def compute_from_counts(
    counts: Dict[str, Dict[int, int]], certificate_count: int
) -> FieldSizeDistributions:
    """Per-field CDFs from merged ``size -> multiplicity`` accumulators."""
    return FieldSizeDistributions(
        cdfs={name: EmpiricalCdf.from_counts(counts[name]) for name in FIELD_NAMES},
        certificate_count=certificate_count,
    )
