"""X.509 v3 certificate construction (RFC 5280 §4.1)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence, Tuple

from ..asn1 import (
    OID,
    encode_bit_string,
    encode_explicit,
    encode_integer,
    encode_sequence,
    encode_utc_time,
)
from .extensions import Extension, encode_extensions
from .keys import KeyAlgorithm, PublicKey, SignatureAlgorithm
from .name import DistinguishedName


@dataclass(frozen=True)
class Validity:
    """Certificate validity window."""

    not_before: datetime
    not_after: datetime

    @classmethod
    def for_days(cls, days: int, start: Optional[datetime] = None) -> "Validity":
        start = start or datetime(2022, 9, 1, tzinfo=timezone.utc)
        return cls(start, start + timedelta(days=days))

    def encode(self) -> bytes:
        return encode_sequence(encode_utc_time(self.not_before), encode_utc_time(self.not_after))


#: The fields a skeleton-store leaf record postpones (see
#: :func:`repro.x509.issuance.leaf_from_record`); reading one expands it.
_DEFERRED_FIELDS = frozenset(
    (
        "serial_number",
        "subject",
        "public_key",
        "validity",
        "extensions",
        "tbs_der",
        "signature_value",
        "_san_names",
    )
)


@dataclass(frozen=True)
class Certificate:
    """An encoded certificate plus the structured description it came from.

    Keeping the description next to the DER bytes lets the analysis layer ask
    both "how many bytes" and "which field contributed them" without
    re-parsing.
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: PublicKey
    signature_algorithm: SignatureAlgorithm
    serial_number: int
    validity: Validity
    extensions: Tuple[Extension, ...]
    is_ca: bool
    der: bytes
    tbs_der: bytes
    signature_value: bytes

    @property
    def size(self) -> int:
        """Total DER-encoded size in bytes."""
        return len(self.der)

    @property
    def subject_common_name(self) -> Optional[str]:
        return self.subject.common_name

    @property
    def issuer_common_name(self) -> Optional[str]:
        return self.issuer.common_name

    @property
    def is_self_signed(self) -> bool:
        return self.subject.encode() == self.issuer.encode()

    @property
    def key_algorithm(self) -> KeyAlgorithm:
        record = self.__dict__.get("_deferred")
        if record is not None:
            # A deferred leaf's key algorithm is its template's; reading it
            # must not expand the record (the columnar kernel asks per chain).
            return record[0].key_algorithm
        return self.public_key.algorithm

    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the DER encoding (hex)."""
        return hashlib.sha256(self.der).hexdigest()

    def extension(self, dotted_oid: str) -> Optional[Extension]:
        for ext in self.extensions:
            if ext.oid.dotted == dotted_oid:
                return ext
        return None

    @property
    def san_extension(self) -> Optional[Extension]:
        return self.extension(OID.SUBJECT_ALT_NAME.dotted)

    @property
    def san_names(self) -> Tuple[str, ...]:
        # Issuance memoizes the names; a certificate rebuilt from a
        # skeleton-store leaf record derives them from its chain spec when
        # its record expands.
        return getattr(self, "_san_names", ())

    def __getattr__(self, name: str):
        # Certificates rebuilt from a skeleton-store leaf record carry a
        # ``_deferred`` record tuple instead of the fields the scan layer
        # never reads (serial, subject DN, public key, validity, extension
        # tuple, TBS and signature slices, SAN names); the first access to
        # one of those expands the record into ``__dict__`` and the instance
        # behaves like a fresh one.  Every other missing name — memo probes
        # such as ``getattr(cert, "_field_sizes", None)`` — raises without
        # expanding: a warm scan reads key algorithm, sizes and SAN share
        # straight from the record and must expand nothing.  The import is deferred to
        # break the issuance→certificate cycle.
        if name not in _DEFERRED_FIELDS:
            raise AttributeError(name)
        record = self.__dict__.get("_deferred")
        if record is None:
            raise AttributeError(name)
        from .issuance import expand_deferred_leaf_fields

        del self.__dict__["_deferred"]
        self.__dict__.update(expand_deferred_leaf_fields(self.__dict__["der"], record))
        return self.__dict__[name]

    def __getstate__(self):
        if "_deferred" in self.__dict__:
            # A deferred record points at its template and chain spec; expand
            # it so the pickle carries the certificate's own fields.
            self.validity
        return dict(self.__dict__)


@dataclass
class CertificateBuilder:
    """Builds and "signs" certificates.

    The builder produces real DER for every field.  The signature value is a
    modelled signature whose size matches the signing key's algorithm (see
    :mod:`repro.x509.keys`).
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: PublicKey
    issuer_key: PublicKey
    validity: Validity
    serial_number: int
    extensions: Sequence[Extension] = field(default_factory=tuple)
    is_ca: bool = False
    san_names: Tuple[str, ...] = ()
    signature_algorithm: Optional[SignatureAlgorithm] = None

    def build(self) -> Certificate:
        signature_algorithm = self.signature_algorithm or SignatureAlgorithm.for_signer(self.issuer_key)
        algorithm_der = signature_algorithm.encode_algorithm_identifier()

        extensions = tuple(self.extensions)
        subject_der = self.subject.encode()
        issuer_der = self.issuer.encode()
        spki_der = self.public_key.spki_der()
        tbs = encode_sequence(
            encode_explicit(0, encode_integer(2)),  # version v3
            encode_integer(self.serial_number),
            algorithm_der,
            issuer_der,
            self.validity.encode(),
            subject_der,
            spki_der,
            encode_extensions(extensions),
        )
        signature = self.issuer_key.sign(tbs, signature_algorithm)
        der = encode_sequence(tbs, algorithm_der, encode_bit_string(signature))
        certificate = Certificate(
            subject=self.subject,
            issuer=self.issuer,
            public_key=self.public_key,
            signature_algorithm=signature_algorithm,
            serial_number=self.serial_number,
            validity=self.validity,
            extensions=extensions,
            is_ca=self.is_ca,
            der=der,
            tbs_der=tbs,
            signature_value=signature,
        )
        object.__setattr__(certificate, "_san_names", tuple(self.san_names))
        # Every component encoding is in hand right here, so the per-field
        # accounting (paper Figures 2b/8) is a handful of len() calls instead
        # of a re-walk of the structured fields at measurement time (see
        # repro.x509.field_sizes, which reads this row back as its memo).
        ext_total = sum(len(ext.encode()) for ext in extensions)
        accounted = (
            len(subject_der) + len(issuer_der) + len(spki_der) + ext_total + len(signature)
        )
        object.__setattr__(
            certificate,
            "_field_size_row",
            (
                len(subject_der),
                len(issuer_der),
                len(spki_der),
                ext_total,
                len(signature),
                max(len(der) - accounted, 0),
                len(der),
            ),
        )
        return certificate


def serial_from_seed(seed: str, bits: int = 128) -> int:
    """Derive a deterministic positive serial number from a seed string."""
    digest = hashlib.sha256(seed.encode()).digest()
    value = int.from_bytes(digest[: bits // 8], "big")
    return value | (1 << (bits - 2))  # keep it large but positive
