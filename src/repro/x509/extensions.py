"""X.509 v3 extensions with real DER encodings.

Extensions are the single largest contributor to certificate size in the
paper's Figure 2(b), and subject-alternative-name bloat is the subject of its
Appendix E (cruise-liner certificates), so the encodings here are faithful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..asn1 import (
    OID,
    ObjectIdentifier,
    encode_bit_string,
    encode_boolean,
    encode_ia5_string,
    encode_integer,
    encode_octet_string,
    encode_sequence,
    encode_tlv,
)
from ..asn1.tags import Tag


@dataclass(frozen=True)
class Extension:
    """A generic encoded extension; concrete classes build the value bytes."""

    oid: ObjectIdentifier
    critical: bool
    value: bytes  # the DER content placed inside the extnValue OCTET STRING

    def encode(self) -> bytes:
        # Memoized on the frozen instance: issuer-constant extensions (AKI,
        # AIA, key usage, policies) are shared across every leaf a CA issues.
        cached = getattr(self, "_encoded", None)
        if cached is None:
            parts = [self.oid.encode()]
            if self.critical:
                parts.append(encode_boolean(True))
            parts.append(encode_octet_string(self.value))
            cached = encode_sequence(*parts)
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def name(self) -> str:
        return self.oid.name or self.oid.dotted

    def encoded_size(self) -> int:
        return len(self.encode())


# ---------------------------------------------------------------------------
# Concrete extensions
# ---------------------------------------------------------------------------

def BasicConstraints(ca: bool, path_length: Optional[int] = None, critical: bool = True) -> Extension:
    """basicConstraints ::= SEQUENCE { cA BOOLEAN DEFAULT FALSE, pathLen INTEGER OPTIONAL }"""
    parts = []
    if ca:
        parts.append(encode_boolean(True))
    if path_length is not None:
        parts.append(encode_integer(path_length))
    return Extension(OID.BASIC_CONSTRAINTS, critical, encode_sequence(*parts))


def KeyUsage(
    digital_signature: bool = False,
    key_encipherment: bool = False,
    key_cert_sign: bool = False,
    crl_sign: bool = False,
    critical: bool = True,
) -> Extension:
    """keyUsage BIT STRING with the flags used by Web PKI certificates."""
    bits = 0
    if digital_signature:
        bits |= 0x80
    if key_encipherment:
        bits |= 0x20
    if key_cert_sign:
        bits |= 0x04
    if crl_sign:
        bits |= 0x02
    if bits == 0:
        value = encode_bit_string(b"", 0)
    else:
        # Count trailing zero bits in the single flag octet.
        unused = 0
        probe = bits
        while probe and not probe & 1:
            unused += 1
            probe >>= 1
        value = encode_bit_string(bytes([bits]), unused)
    return Extension(OID.KEY_USAGE, critical, value)


def ExtendedKeyUsage(purposes: Sequence[ObjectIdentifier] = (), critical: bool = False) -> Extension:
    purposes = purposes or (OID.SERVER_AUTH, OID.CLIENT_AUTH)
    return Extension(OID.EXTENDED_KEY_USAGE, critical, encode_sequence(*(p.encode() for p in purposes)))


def SubjectAlternativeName(dns_names: Sequence[str], critical: bool = False) -> Extension:
    """subjectAltName with dNSName GeneralNames ([2] IA5String)."""
    names = []
    for dns in dns_names:
        content = dns.encode("ascii")
        names.append(encode_tlv(0x82, content))  # context [2], primitive
    return Extension(OID.SUBJECT_ALT_NAME, critical, encode_sequence(*names))


def SubjectKeyIdentifier(key_id: bytes, critical: bool = False) -> Extension:
    return Extension(OID.SUBJECT_KEY_IDENTIFIER, critical, encode_octet_string(key_id))


def AuthorityKeyIdentifier(key_id: bytes, critical: bool = False) -> Extension:
    """authorityKeyIdentifier with keyIdentifier [0] only (the common form)."""
    inner = encode_tlv(0x80, key_id)  # context [0], primitive
    return Extension(OID.AUTHORITY_KEY_IDENTIFIER, critical, encode_sequence(inner))


def AuthorityInformationAccess(
    ocsp_url: Optional[str] = None,
    ca_issuers_url: Optional[str] = None,
    critical: bool = False,
) -> Extension:
    descriptions = []
    if ocsp_url:
        descriptions.append(
            encode_sequence(OID.OCSP.encode(), encode_tlv(0x86, ocsp_url.encode("ascii")))
        )
    if ca_issuers_url:
        descriptions.append(
            encode_sequence(OID.CA_ISSUERS.encode(), encode_tlv(0x86, ca_issuers_url.encode("ascii")))
        )
    return Extension(OID.AUTHORITY_INFO_ACCESS, critical, encode_sequence(*descriptions))


#: The id-qt-cps policy qualifier (RFC 5280 §4.2.1.4).
_CPS_QUALIFIER = ObjectIdentifier("1.3.6.1.5.5.7.2.1", "cps")


def CertificatePolicies(
    policy_oids: Sequence[ObjectIdentifier] = (),
    cps_url: Optional[str] = None,
    critical: bool = False,
) -> Extension:
    policy_oids = policy_oids or (OID.DOMAIN_VALIDATED,)
    policies = []
    for oid in policy_oids:
        if cps_url:
            qualifier = encode_sequence(
                _CPS_QUALIFIER.encode(),
                encode_ia5_string(cps_url),
            )
            policies.append(encode_sequence(oid.encode(), encode_sequence(qualifier)))
        else:
            policies.append(encode_sequence(oid.encode()))
    return Extension(OID.CERTIFICATE_POLICIES, critical, encode_sequence(*policies))


def CrlDistributionPoints(urls: Sequence[str], critical: bool = False) -> Extension:
    points = []
    for url in urls:
        general_name = encode_tlv(0x86, url.encode("ascii"))
        full_name = encode_tlv(0xA0, general_name)  # [0] constructed
        distribution_point_name = encode_tlv(0xA0, full_name)  # [0] constructed
        points.append(encode_sequence(distribution_point_name))
    return Extension(OID.CRL_DISTRIBUTION_POINTS, critical, encode_sequence(*points))


def SignedCertificateTimestamps(count: int = 2, log_seed: str = "ct-log", critical: bool = False) -> Extension:
    """An embedded SCT list.  Real SCTs are ~120 bytes each; we model that."""
    scts = []
    for index in range(count):
        body = hashlib.sha256(f"{log_seed}:{index}".encode()).digest() * 4  # 128 bytes
        entry = len(body[:118]).to_bytes(2, "big") + body[:118]
        scts.append(entry)
    blob = b"".join(scts)
    tls_list = len(blob).to_bytes(2, "big") + blob
    return Extension(OID.SCT_LIST, critical, encode_octet_string(tls_list))


def encode_extensions(extensions: Sequence[Extension]) -> bytes:
    """Encode the Extensions SEQUENCE wrapped in the explicit [3] tag."""
    sequence = encode_tlv(Tag.SEQUENCE, b"".join(ext.encode() for ext in extensions))
    return encode_tlv(0xA3, sequence)


@dataclass(frozen=True)
class SanSummary:
    """Byte accounting for subject alternative names (paper Figure 14)."""

    dns_names: Tuple[str, ...] = field(default_factory=tuple)
    encoded_size: int = 0

    @classmethod
    def from_extension(cls, extension: Extension) -> "SanSummary":
        if extension.oid.dotted != OID.SUBJECT_ALT_NAME.dotted:
            raise ValueError("not a subjectAltName extension")
        return cls(dns_names=(), encoded_size=extension.encoded_size())
