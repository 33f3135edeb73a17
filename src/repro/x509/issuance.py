"""Leaf-issuance fast path: per-(issuer, key-algorithm) encoded templates.

Population generation issues one leaf certificate per TLS-speaking domain, but
most of every leaf's DER is *not* per-domain: the signature AlgorithmIdentifier,
the issuer DN, and six of the nine extensions depend only on the issuing CA and
the leaf key algorithm.  :func:`leaf_template` precomputes those blocks once
per ``(issuer, key_algorithm)`` pair and :func:`issue_leaf_fast` assembles a
certificate from them plus the genuinely per-leaf parts (subject DN, key,
SANs, SCTs, serial, signature).

The output is byte-identical to :func:`repro.x509.ca.issue_leaf` — the
reference implementation that encodes everything from scratch — which
``tests/test_population_skeleton.py`` pins for every profile × key algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from ..asn1 import (
    OID,
    encode_bit_string,
    encode_explicit,
    encode_integer,
    encode_length,
    encode_sequence,
    encode_tlv,
)
from ..asn1.tags import Tag
from .certificate import Certificate, Validity, serial_from_seed
from .extensions import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CertificatePolicies,
    Extension,
    ExtendedKeyUsage,
    KeyUsage,
    SignedCertificateTimestamps,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
)
from .keys import KeyAlgorithm, PublicKey, SignatureAlgorithm
from .name import DistinguishedName, RelativeName

#: The constant ``[0] EXPLICIT INTEGER 2`` (version v3) block of every TBS.
_VERSION_DER = encode_explicit(0, encode_integer(2))

#: Extensions shared by *every* issued leaf, whoever signs it.
_EKU = ExtendedKeyUsage()
_BASIC_CONSTRAINTS = BasicConstraints(ca=False, critical=True)
_POLICIES = CertificatePolicies(policy_oids=(OID.DOMAIN_VALIDATED,))


def _slug(text: str) -> str:
    """Mirror of :func:`repro.x509.ca._slug` (kept local to avoid a cycle)."""
    return "".join(ch.lower() if ch.isalnum() else "-" for ch in text).strip("-")


@lru_cache(maxsize=32)
def _validity_for_days(days: int) -> Tuple[Validity, bytes]:
    """Leaf validity windows come in a handful of day counts; encode each once."""
    validity = Validity.for_days(days)
    return validity, validity.encode()


@dataclass(frozen=True)
class LeafTemplate:
    """Precomputed issuance state for one ``(issuer, leaf key algorithm)`` pair.

    ``leading_extensions_der`` covers extension positions 1–3 (key usage, EKU,
    basic constraints), ``issuer_extensions_der`` positions 5–6 (AKI, AIA) and
    ``policies_der`` position 8 — exactly the layout ``issue_leaf`` emits, so
    splicing the per-leaf SKI/SAN/SCT encodings between them reproduces the
    reference extension sequence byte for byte.
    """

    issuer_name: str
    issuer_subject: DistinguishedName
    issuer_subject_der: bytes
    issuer_key: PublicKey
    key_algorithm: KeyAlgorithm
    signature_algorithm: SignatureAlgorithm
    algorithm_der: bytes
    key_usage: Extension
    authority_key_identifier: Extension
    authority_info_access: Extension
    leading_extensions_der: bytes
    issuer_extensions_der: bytes
    policies_der: bytes


def leaf_template(issuer, key_algorithm: KeyAlgorithm) -> LeafTemplate:
    """The (cached) :class:`LeafTemplate` of one CA × leaf key algorithm.

    ``issuer`` is a :class:`repro.x509.ca.CertificateAuthority` (duck-typed to
    avoid an import cycle: anything with ``certificate``/``key``/``name``).
    Templates are memoized on the issuer instance, so they live exactly as
    long as the CA hierarchy that owns them.
    """
    templates: Dict[KeyAlgorithm, LeafTemplate] = getattr(issuer, "_leaf_templates", None)
    if templates is None:
        templates = {}
        object.__setattr__(issuer, "_leaf_templates", templates)
    template = templates.get(key_algorithm)
    if template is not None:
        return template

    signature_algorithm = SignatureAlgorithm.for_signer(issuer.key)
    issuer_subject = issuer.certificate.subject
    issuer_org = issuer_subject.organization or issuer.name
    key_usage = KeyUsage(
        digital_signature=True, key_encipherment=key_algorithm.is_rsa, critical=True
    )
    authority_key_identifier = AuthorityKeyIdentifier(issuer.key.key_identifier())
    authority_info_access = AuthorityInformationAccess(
        ocsp_url=f"http://ocsp.{_slug(issuer_org)}.example",
        ca_issuers_url=f"http://crt.{_slug(issuer_org)}.example/{_slug(issuer.name)}.der",
    )
    template = LeafTemplate(
        issuer_name=issuer.name,
        issuer_subject=issuer_subject,
        issuer_subject_der=issuer_subject.encode(),
        issuer_key=issuer.key,
        key_algorithm=key_algorithm,
        signature_algorithm=signature_algorithm,
        algorithm_der=signature_algorithm.encode_algorithm_identifier(),
        key_usage=key_usage,
        authority_key_identifier=authority_key_identifier,
        authority_info_access=authority_info_access,
        leading_extensions_der=(
            key_usage.encode() + _EKU.encode() + _BASIC_CONSTRAINTS.encode()
        ),
        issuer_extensions_der=(
            authority_key_identifier.encode() + authority_info_access.encode()
        ),
        policies_der=_POLICIES.encode(),
    )
    templates[key_algorithm] = template
    return template


def issue_leaf_fast(
    template: LeafTemplate,
    domain: str,
    san_names: Sequence[str],
    validity_days: int = 90,
) -> Certificate:
    """Issue a leaf from a :class:`LeafTemplate` (byte-identical to ``issue_leaf``)."""
    subject = DistinguishedName.build(common_name=domain)
    key = PublicKey(template.key_algorithm, owner=f"leaf:{domain}")
    serial_number = serial_from_seed(f"leaf:{domain}:{template.issuer_name}")
    subject_key_identifier = SubjectKeyIdentifier(key.key_identifier())
    san = SubjectAlternativeName(list(san_names))
    sct = SignedCertificateTimestamps(count=2, log_seed=f"sct:{domain}")
    validity, validity_der = _validity_for_days(validity_days)

    extensions_content = b"".join(
        (
            template.leading_extensions_der,
            subject_key_identifier.encode(),
            template.issuer_extensions_der,
            san.encode(),
            template.policies_der,
            sct.encode(),
        )
    )
    extensions_der = encode_tlv(0xA3, encode_tlv(Tag.SEQUENCE, extensions_content))

    subject_der = subject.encode()
    spki_der = key.spki_der()
    tbs = encode_sequence(
        _VERSION_DER,
        encode_integer(serial_number),
        template.algorithm_der,
        template.issuer_subject_der,
        validity_der,
        subject_der,
        spki_der,
        extensions_der,
    )
    signature = template.issuer_key.sign(tbs, template.signature_algorithm)
    der = encode_sequence(tbs, template.algorithm_der, encode_bit_string(signature))
    certificate = Certificate(
        subject=subject,
        issuer=template.issuer_subject,
        public_key=key,
        signature_algorithm=template.signature_algorithm,
        serial_number=serial_number,
        validity=validity,
        extensions=(
            template.key_usage,
            _EKU,
            _BASIC_CONSTRAINTS,
            subject_key_identifier,
            template.authority_key_identifier,
            template.authority_info_access,
            san,
            _POLICIES,
            sct,
        ),
        is_ca=False,
        der=der,
        tbs_der=tbs,
        signature_value=signature,
    )
    object.__setattr__(certificate, "_san_names", tuple(san_names))
    # Per-field accounting while every component encoding is in hand:
    # ``extensions_content`` is exactly the concatenation of the nine
    # extensions' encodings, so its length is their encoded-size sum (see
    # repro.x509.field_sizes, which reads this row back as its memo).
    accounted = (
        len(subject_der)
        + len(template.issuer_subject_der)
        + len(spki_der)
        + len(extensions_content)
        + len(signature)
    )
    object.__setattr__(
        certificate,
        "_field_size_row",
        (
            len(subject_der),
            len(template.issuer_subject_der),
            len(spki_der),
            len(extensions_content),
            len(signature),
            max(len(der) - accounted, 0),
            len(der),
        ),
    )
    return certificate


# ---------------------------------------------------------------------------
# Leaf records: re-hydrating issued leaves without re-running issuance
# ---------------------------------------------------------------------------
#
# The persistent skeleton store (repro.scanners.skeleton_store) caches the
# generation phase's *output*, and most of that output's cost is leaf
# issuance: DER assembly, SPKI/key-identifier/SCT hashing, signing.  A leaf
# record captures exactly the per-leaf artifacts of issue_leaf_fast — the
# finished DER, the TBS/signature slice lengths, the serial, the three
# per-leaf extension values and the field-size memo — so a warm start
# reassembles a byte-identical Certificate from template-shared parts plus
# stored bytes, with zero hashing and zero DER encoding.

#: Extension tuple positions of the per-leaf extensions in issue_leaf_fast's
#: nine-extension layout (SKI, SAN, SCT); every other position is shared with
#: the template or a module constant.
_SKI_POSITION, _SAN_POSITION, _SCT_POSITION = 3, 6, 8

_COMMON_NAME_OID = OID.COMMON_NAME
_SKI_OID = OID.SUBJECT_KEY_IDENTIFIER
_SAN_OID = OID.SUBJECT_ALT_NAME
_SCT_OID = OID.SCT_LIST
_SAN_OID_SIZE = len(_SAN_OID.encode())


def leaf_record(
    certificate: Certificate,
) -> Tuple[bytes, int, int, int, bytes, bytes, bytes, Tuple[int, ...]]:
    """The serializable per-leaf remainder of an ``issue_leaf_fast`` output.

    Everything *not* in the record is a function of the leaf's template and
    its :class:`~repro.webpki.skeleton.ChainSpec` (subject DN, public key,
    validity, shared extensions), so ``leaf_from_record`` rebuilds the exact
    certificate from ``(template, domain, san_names, validity_days, record)``.
    """
    row = getattr(certificate, "_field_size_row", None)
    if row is None:
        raise ValueError(
            "certificate was not issued by issue_leaf_fast; cannot build a leaf record"
        )
    extensions = certificate.extensions
    return (
        certificate.der,
        len(certificate.tbs_der),
        len(certificate.signature_value),
        certificate.serial_number,
        extensions[_SKI_POSITION].value,
        extensions[_SAN_POSITION].value,
        extensions[_SCT_POSITION].value,
        row,
    )


def leaf_from_record(
    template: LeafTemplate,
    domain: str,
    san_names: "Sequence[str] | Callable[[], Sequence[str]]",
    validity_days: int,
    der: bytes,
    tbs_length: int,
    signature_length: int,
    serial_number: int,
    ski_value: bytes,
    san_value: bytes,
    sct_value: bytes,
    field_size_row: Tuple[int, ...],
) -> Certificate:
    """Rebuild an ``issue_leaf_fast`` output from its :func:`leaf_record`.

    The TBS and signature are slices of the stored DER (``der`` is
    ``SEQUENCE(tbs, algorithm, BIT STRING(signature))``, so the TBS starts
    right after the outer header and the signature is the DER's tail).  This
    is the warm path's hot loop — ~3k certificates per 5k-domain campaign —
    so only the fields the scan layer reads are populated eagerly; subject
    DN, public key, validity, the extension tuple and the TBS/signature
    slices live behind a ``_deferred`` thunk that
    :meth:`Certificate.__getattr__` expands on first access, and
    ``san_names`` may likewise be a thunk.  ``key_algorithm`` and the SAN
    byte share are answered from the record without expanding it.
    """
    certificate = Certificate.__new__(Certificate)
    certificate.__dict__.update(
        {
            "issuer": template.issuer_subject,
            "signature_algorithm": template.signature_algorithm,
            "serial_number": serial_number,
            "is_ca": False,
            "der": der,
            "_san_names": san_names if callable(san_names) else tuple(san_names),
            "_field_size_row": field_size_row,
            "_deferred": (
                template,
                domain,
                validity_days,
                ski_value,
                san_value,
                sct_value,
                tbs_length,
                signature_length,
            ),
        }
    )
    return certificate


def deferred_san_size(record: tuple) -> int:
    """Encoded size of the SAN extension a ``_deferred`` leaf record holds.

    Equal to the expanded extension's ``encoded_size()`` — the non-critical
    ``SEQUENCE { OID, OCTET STRING san_value }`` — computed from the stored
    value's length, so SAN accounting never expands the record.
    """
    value_size = len(record[4])
    inner = _SAN_OID_SIZE + 1 + len(encode_length(value_size)) + value_size
    return 1 + len(encode_length(inner)) + inner


def expand_deferred_leaf_fields(der: bytes, record: tuple) -> dict:
    """Build the fields a ``_deferred`` leaf record postponed.

    Called (once per certificate, at most) by ``Certificate.__getattr__``
    when something reads a field the skeleton-store warm path left deferred.
    """
    (
        template,
        domain,
        validity_days,
        ski_value,
        san_value,
        sct_value,
        tbs_length,
        signature_length,
    ) = record
    subject = DistinguishedName.__new__(DistinguishedName)
    relative = RelativeName.__new__(RelativeName)
    relative.__dict__.update({"attribute": _COMMON_NAME_OID, "value": domain})
    subject.__dict__.update({"rdns": (relative,)})
    key = PublicKey.__new__(PublicKey)
    key.__dict__.update(
        {"algorithm": template.key_algorithm, "owner": f"leaf:{domain}"}
    )
    ski = Extension.__new__(Extension)
    ski.__dict__.update({"oid": _SKI_OID, "critical": False, "value": ski_value})
    san = Extension.__new__(Extension)
    san.__dict__.update({"oid": _SAN_OID, "critical": False, "value": san_value})
    sct = Extension.__new__(Extension)
    sct.__dict__.update({"oid": _SCT_OID, "critical": False, "value": sct_value})
    validity, _ = _validity_for_days(validity_days)
    header = 2 + ((der[1] & 0x7F) if der[1] & 0x80 else 0)
    return {
        "subject": subject,
        "public_key": key,
        "validity": validity,
        "extensions": (
            template.key_usage,
            _EKU,
            _BASIC_CONSTRAINTS,
            ski,
            template.authority_key_identifier,
            template.authority_info_access,
            san,
            _POLICIES,
            sct,
        ),
        "tbs_der": der[header : header + tbs_length],
        "signature_value": der[len(der) - signature_length :],
    }
