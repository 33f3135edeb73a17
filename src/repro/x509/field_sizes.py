"""Per-field size accounting for certificates (paper Figures 2b and 8).

Measured sizes are memoized on the :class:`~repro.x509.certificate.Certificate`
instance itself (the ``_field_sizes`` attribute, set with
``object.__setattr__`` on the frozen dataclass, the same idiom the wire model
uses for its size memos).  The memo relies on the invariant that certificates
are immutable once built — their DER and every structured component are fixed
at :meth:`CertificateBuilder.build` time — so the first measurement stays
valid for the object's lifetime.  This matters because the same CA
certificates appear in thousands of chains: figure02b measures every delivered
certificate of the population, and without the memo the repeated DER
re-encoding of shared intermediates is the largest single cost of
``build_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..asn1 import OID
from .certificate import Certificate
from .issuance import deferred_san_size


@dataclass(frozen=True)
class CertificateFieldSizes:
    """Encoded sizes (bytes) of the certificate fields the paper reports."""

    subject: int
    issuer: int
    public_key_info: int
    extensions: int
    signature: int
    other: int
    total: int


def measure_field_sizes(certificate: Certificate) -> CertificateFieldSizes:
    """Measure the encoded sizes of a certificate's main fields (memoized).

    The sizes are taken from the actual DER encodings of each component, so
    they sum (together with framing overhead counted as *other*) to the full
    certificate size.  Repeated calls for the same certificate instance return
    the same cached :class:`CertificateFieldSizes` (certificates are frozen,
    see the module docstring).
    """
    cached = getattr(certificate, "_field_sizes", None)
    if cached is not None:
        return cached
    row = getattr(certificate, "_field_size_row", None)
    if row is None:
        subject = certificate.subject.encoded_size()
        issuer = certificate.issuer.encoded_size()
        spki = len(certificate.public_key.spki_der())
        extensions = sum(ext.encoded_size() for ext in certificate.extensions)
        # The signature appears once as the signatureValue BIT STRING; the
        # signatureAlgorithm appears twice (in and outside the TBS) but is
        # small and lands in "other" with serial, version, validity, framing.
        signature = len(certificate.signature_value)
        accounted = subject + issuer + spki + extensions + signature
        row = (
            subject,
            issuer,
            spki,
            extensions,
            signature,
            max(certificate.size - accounted, 0),
            certificate.size,
        )
        object.__setattr__(certificate, "_field_size_row", row)
    sizes = CertificateFieldSizes(*row)
    object.__setattr__(certificate, "_field_sizes", sizes)
    return sizes


#: Order of :func:`field_size_row` entries; the first five match
#: ``figure02b.FIELD_NAMES``, the full seven match ``figure08.FIELD_SUM_KEYS``.
FIELD_ROW_KEYS = (
    "subject", "issuer", "public_key_info", "extensions", "signature", "other", "total",
)


def field_size_row(certificate: Certificate) -> tuple:
    """The measured field sizes as a plain tuple, memoized on the certificate.

    Batch entry point for the columnar fold kernels: a shared CA certificate
    appears in thousands of chains per shard, and the whole-shard folds scale
    one row by the certificate's multiplicity instead of re-reading dataclass
    attributes per occurrence.  Row order is :data:`FIELD_ROW_KEYS`.
    """
    cached = getattr(certificate, "_field_size_row", None)
    if cached is None:
        measure_field_sizes(certificate)  # computes and memoizes the row
        cached = certificate._field_size_row
    return cached


def san_byte_share(certificate: Certificate) -> float:
    """Fraction of the certificate's bytes used by the subjectAltName extension.

    Used by the cruise-liner analysis (paper Figure 14 / Appendix E).
    Memoized on the certificate instance: the figure-14 fold revisits the
    same leaf once per delivering deployment.
    """
    cached = getattr(certificate, "_san_share", None)
    if cached is not None:
        return cached
    record = certificate.__dict__.get("_deferred")
    if record is not None:
        # Skeleton-store leaf: size the SAN from the field-size row rather
        # than expanding the record into an extension tuple.
        san_size = deferred_san_size(record, certificate._field_size_row)
    else:
        san = certificate.extension(OID.SUBJECT_ALT_NAME.dotted)
        san_size = 0 if san is None else san.encoded_size()
    share = san_size / certificate.size if certificate.size else 0.0
    object.__setattr__(certificate, "_san_share", share)
    return share


def mean_from_sums(sums: Dict[str, int], count: int) -> CertificateFieldSizes:
    """Mean field sizes from exact integer per-field sums over ``count`` certs.

    The integer sums are order-insensitive, so streaming reducers can merge
    them per shard and still round to the same means.
    """
    if count == 0:
        return CertificateFieldSizes(0, 0, 0, 0, 0, 0, 0)

    def avg(name: str) -> int:
        return int(round(sums[name] / count))

    return CertificateFieldSizes(
        subject=avg("subject"),
        issuer=avg("issuer"),
        public_key_info=avg("public_key_info"),
        extensions=avg("extensions"),
        signature=avg("signature"),
        other=avg("other"),
        total=avg("total"),
    )
