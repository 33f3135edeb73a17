"""Leaf-issuance fast path: leaves spliced from per-template encoded parts.

Population generation issues one leaf certificate per TLS-speaking domain, but
most of every leaf's DER is *not* per-domain.  The signature
AlgorithmIdentifier, the issuer DN and six of the nine extensions depend only
on the issuing CA and the leaf key algorithm; :func:`leaf_template`
precomputes those blocks once per ``(issuer, key_algorithm)`` pair.  Every
other part has a fixed shape, so its framing is encoded once too and
:func:`issue_leaf_fast` splices the genuinely per-domain bytes into it:

* the SubjectPublicKeyInfo prefix and suffix around the key body (per
  :class:`~repro.x509.keys.KeyAlgorithm`; an RSA modulus gets its top and
  low bits forced on the bytes themselves);
* the SKI and SCT extension headers around the hash-derived values, whose
  lengths never vary;
* the CN-only subject DN, the SAN GeneralNames, and the TBS and outer
  lengths, framed with the short-form :func:`~repro.asn1.der.encode_tlv`.

:func:`issue_leaf_fast` is a byte kernel: it returns the DER, the field-size
row and the component encodings and builds no object, which is all the
skeleton store's leaf annex needs.  :func:`issue_leaf_certificate` wraps its
output into a :class:`~repro.x509.certificate.Certificate` for the chain
builders.  The DER is byte-identical to :func:`repro.x509.ca.issue_leaf` —
the reference implementation that encodes everything from scratch through
the structured extension and name classes.  ``tests/test_issuance_splice.py``
pins that for every profile × key algorithm, long-form lengths included,
down to the memoized encodings the wrapper stores on each object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, NamedTuple, Sequence, Tuple

from ..asn1 import (
    OID,
    decode_integer,
    decode_tlv,
    encode_explicit,
    encode_integer,
    encode_tlv,
    iter_tlvs,
)
from ..asn1.tags import Tag
from .certificate import Certificate, Validity
from .extensions import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CertificatePolicies,
    Extension,
    ExtendedKeyUsage,
    KeyUsage,
    SignedCertificateTimestamps,
    SubjectKeyIdentifier,
)
from .keys import KeyAlgorithm, PublicKey, SignatureAlgorithm, sha256_counter_bytes
from .name import DistinguishedName, RelativeName

#: The constant ``[0] EXPLICIT INTEGER 2`` (version v3) block of every TBS.
_VERSION_DER = encode_explicit(0, encode_integer(2))

#: Extensions shared by *every* issued leaf, whoever signs it.
_EKU = ExtendedKeyUsage()
_BASIC_CONSTRAINTS = BasicConstraints(ca=False, critical=True)
_POLICIES = CertificatePolicies(policy_oids=(OID.DOMAIN_VALIDATED,))

_COMMON_NAME_OID = OID.COMMON_NAME
_SKI_OID = OID.SUBJECT_KEY_IDENTIFIER
_SAN_OID = OID.SUBJECT_ALT_NAME
_SCT_OID = OID.SCT_LIST
_SAN_OID_DER = _SAN_OID.encode()
_SEQUENCE = int(Tag.SEQUENCE)
_SET = int(Tag.SET)
_UTF8_STRING = int(Tag.UTF8_STRING)
_OCTET_STRING = int(Tag.OCTET_STRING)
_BIT_STRING = int(Tag.BIT_STRING)
_INTEGER = int(Tag.INTEGER)
_DNS_NAME = 0x82  # GeneralName dNSName: context [2], primitive
_EXTENSIONS = 0xA3  # TBS extensions: context [3], constructed

#: ``AttributeTypeAndValue`` prefix of a commonName: its OID.
_CN_OID_DER = _COMMON_NAME_OID.encode()

#: The SKI extension around its 20-byte key identifier: a fixed-length
#: ``OCTET STRING`` value inside a fixed-length extension.
_SKI_SIZE = 20
_SKI_REFERENCE = SubjectKeyIdentifier(bytes(_SKI_SIZE))
_SKI_VALUE_HEAD = _SKI_REFERENCE.value[:-_SKI_SIZE]
_SKI_EXTENSION_HEAD = _SKI_REFERENCE.encode()[: -len(_SKI_REFERENCE.value)]

#: The embedded SCT list: two ``u16``-length-prefixed 118-byte entries, each
#: the first 118 bytes of a 32-byte digest repeated four times.  Every length
#: is fixed, so everything outside the two entry bodies is one constant.
_SCT_COUNT = 2
_SCT_BODY = 118
_SCT_ENTRY_HEAD = _SCT_BODY.to_bytes(2, "big")
_SCT_REFERENCE = SignedCertificateTimestamps(count=_SCT_COUNT, log_seed="")
_SCT_VALUE_HEAD = _SCT_REFERENCE.value[: -_SCT_COUNT * (2 + _SCT_BODY)] + _SCT_ENTRY_HEAD
_SCT_EXTENSION_HEAD = _SCT_REFERENCE.encode()[: -len(_SCT_REFERENCE.value)]


class _SlugTable(dict):
    """``str.translate`` table of :func:`slug`, filled per code point on first use."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        self[code] = mapped = char.lower() if char.isalnum() else "-"
        return mapped


_SLUG_TABLE = _SlugTable()


def slug(text: str) -> str:
    """A CA name as a URL label: alphanumerics lowercased, the rest ``-``."""
    return text.translate(_SLUG_TABLE).strip("-")


@lru_cache(maxsize=32)
def _validity_for_days(days: int) -> Tuple[Validity, bytes]:
    """Leaf validity windows come in a handful of day counts; encode each once."""
    validity = Validity.for_days(days)
    return validity, validity.encode()


@dataclass(frozen=True)
class SpkiFrame:
    """The fixed framing of one key algorithm's SubjectPublicKeyInfo.

    A leaf's SPKI is ``prefix + body + suffix``, where ``body`` is the
    ``length`` bytes :func:`~repro.x509.keys.sha256_counter_bytes` derives
    from ``b"<label>:leaf:<domain>:"`` (an RSA modulus with its top and low
    bits forced on, or an EC point's coordinates).
    """

    label: bytes
    length: int
    prefix: bytes
    suffix: bytes
    is_rsa: bool


@lru_cache(maxsize=None)
def spki_frame(algorithm: KeyAlgorithm) -> SpkiFrame:
    """Split the reference SPKI encoding of ``algorithm`` around its key body."""
    reference = PublicKey(algorithm, owner="")._build_spki_der()
    if algorithm.is_rsa:
        # SEQUENCE { alg, BIT STRING { SEQUENCE { INTEGER 00||n, INTEGER e } } }:
        # the modulus is followed only by the public exponent.
        length = algorithm.bits // 8
        suffix = encode_integer(65537)
        label = b"rsa-mod"
    else:
        # ... BIT STRING { 04 || X || Y }: the coordinates end the encoding.
        length = 2 * (algorithm.bits // 8)
        suffix = b""
        label = b"ec-point"
    prefix = reference[: len(reference) - len(suffix) - length]
    return SpkiFrame(label, length, prefix, suffix, algorithm.is_rsa)


@dataclass(frozen=True)
class LeafTemplate:
    """Precomputed issuance state for one ``(issuer, leaf key algorithm)`` pair.

    ``leading_extensions_der`` covers extension positions 1–3 (key usage, EKU,
    basic constraints), ``issuer_extensions_der`` positions 5–6 (AKI, AIA) and
    ``policies_der`` position 8 — exactly the layout ``issue_leaf`` emits, so
    splicing the per-leaf SKI/SAN/SCT encodings between them reproduces the
    reference extension sequence byte for byte.  The remaining fields are the
    issuer-side constants of the serial, TBS and signature derivations.
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
    #: ``b":<issuer name>"``, the tail of the ``leaf:<domain>:<issuer>`` serial seed.
    serial_seed_tail: bytes
    #: The issuer key's owner, appended to the TBS in the signature digest.
    signer_owner: bytes
    #: RSA signature length in bytes; 0 for an ECDSA signature.
    rsa_signature_length: int
    #: Byte length of each ECDSA signature integer (unused for RSA).
    ecdsa_coordinate_length: int
    #: Encoded size of the eight extensions whose sizes do not vary per leaf
    #: (all but the SAN): a leaf's SAN size is its extensions total minus this.
    fixed_extensions_size: int


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
        ocsp_url=f"http://ocsp.{slug(issuer_org)}.example",
        ca_issuers_url=f"http://crt.{slug(issuer_org)}.example/{slug(issuer.name)}.der",
    )
    # The signature value PublicKey.sign would produce for this issuer.
    if signature_algorithm.family == "RSA":
        rsa_signature_length = issuer.key.algorithm.bits // 8 if issuer.key.algorithm.is_rsa else 256
    else:
        rsa_signature_length = 0
    leading_extensions_der = key_usage.encode() + _EKU.encode() + _BASIC_CONSTRAINTS.encode()
    issuer_extensions_der = authority_key_identifier.encode() + authority_info_access.encode()
    policies_der = _POLICIES.encode()
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
        leading_extensions_der=leading_extensions_der,
        issuer_extensions_der=issuer_extensions_der,
        policies_der=policies_der,
        serial_seed_tail=f":{issuer.name}".encode(),
        signer_owner=issuer.key.owner.encode(),
        rsa_signature_length=rsa_signature_length,
        ecdsa_coordinate_length=(
            48 if signature_algorithm is SignatureAlgorithm.ECDSA_WITH_SHA384 else 32
        ),
        fixed_extensions_size=(
            len(leading_extensions_der)
            + len(_SKI_EXTENSION_HEAD) + len(_SKI_VALUE_HEAD) + _SKI_SIZE
            + len(issuer_extensions_der)
            + len(policies_der)
            + len(_SCT_REFERENCE.encode())
        ),
    )
    templates[key_algorithm] = template
    return template


def _positive_integer(magnitude: bytes) -> bytes:
    """Content octets of the DER INTEGER whose big-endian magnitude is given.

    ``magnitude`` has a nonzero first octet, so the encoding is minimal as is
    and needs a ``00`` pad only when its top bit is set.
    """
    return b"\x00" + magnitude if magnitude[0] & 0x80 else magnitude


def _ecdsa_signature(head: bytes, coordinate_length: int) -> bytes:
    """``SEQUENCE { INTEGER r, INTEGER s }`` as :meth:`PublicKey.sign` derives it.

    Both integers have their top bit forced on, so each is ``00``-padded to
    ``coordinate_length + 1`` octets and the whole signature has one length.
    """
    integers = []
    for name in (b"ecdsa-r:", b"ecdsa-s:"):
        value = sha256_counter_bytes(name + head, coordinate_length)
        integers.append(
            encode_tlv(_INTEGER, b"\x00" + bytes((value[0] | 0x80,)) + value[1:])
        )
    return encode_tlv(_SEQUENCE, integers[0] + integers[1])


class LeafParts(NamedTuple):
    """The component encodings :func:`issue_leaf_fast` assembles a leaf from.

    :func:`issue_leaf_certificate` hangs them on the structured fields as
    their memoized encodings.
    """

    subject_der: bytes
    spki_der: bytes
    key_identifier: bytes
    serial_content: bytes
    ski_value: bytes
    ski_der: bytes
    san_value: bytes
    san_der: bytes
    sct_value: bytes
    sct_der: bytes
    tbs: bytes
    signature: bytes


def issue_leaf_fast(
    template: LeafTemplate,
    domain: str,
    san_names: Sequence[str],
    validity_days: int = 90,
) -> Tuple[bytes, Tuple[int, ...], LeafParts]:
    """Issue a leaf from a :class:`LeafTemplate` as bytes: ``(der, row, parts)``.

    ``der`` is byte-identical to ``issue_leaf``'s, ``row`` is its seven-field
    size row (:mod:`repro.x509.field_sizes`) and ``parts`` the component
    encodings.  No object is built: the skeleton store writes its leaf annex
    from ``der`` and ``row`` alone, and :func:`issue_leaf_certificate` wraps
    the three into a :class:`Certificate`.
    """
    sha256 = hashlib.sha256
    domain_bytes = domain.encode()
    owner = b"leaf:" + domain_bytes

    # Subject DN: SEQUENCE { SET { SEQUENCE { commonName, UTF8String } } }.
    subject_der = encode_tlv(
        _SEQUENCE,
        encode_tlv(
            _SET,
            encode_tlv(_SEQUENCE, _CN_OID_DER + encode_tlv(_UTF8_STRING, domain_bytes)),
        ),
    )

    # Public key: the per-domain body spliced into the algorithm's frame.
    frame = spki_frame(template.key_algorithm)
    body = sha256_counter_bytes(frame.label + b":" + owner + b":", frame.length)
    if frame.is_rsa:
        # Full bit length and an odd modulus, as PublicKey forces them.
        body = bytes((body[0] | 0x80,)) + body[1:-1] + bytes((body[-1] | 1,))
    spki_der = frame.prefix + body + frame.suffix
    key_identifier = sha256(spki_der).digest()[:_SKI_SIZE]

    # Serial: serial_from_seed("leaf:<domain>:<issuer>") — 128 bits, bit 126 on.
    serial_bytes = sha256(owner + template.serial_seed_tail).digest()[:16]
    serial_content = _positive_integer(bytes((serial_bytes[0] | 0x40,)) + serial_bytes[1:])

    # The three per-leaf extensions: SKI, SAN and the embedded SCT list.
    ski_value = _SKI_VALUE_HEAD + key_identifier
    ski_der = _SKI_EXTENSION_HEAD + ski_value

    general_names = []
    for name in san_names:
        general_names.append(encode_tlv(_DNS_NAME, name.encode("ascii")))
    san_value = encode_tlv(_SEQUENCE, b"".join(general_names))
    san_der = encode_tlv(_SEQUENCE, _SAN_OID_DER + encode_tlv(_OCTET_STRING, san_value))

    sct_seed = b"sct:" + domain_bytes + b":"
    sct_value = (
        _SCT_VALUE_HEAD
        + (sha256(sct_seed + b"0").digest() * 4)[:_SCT_BODY]
        + _SCT_ENTRY_HEAD
        + (sha256(sct_seed + b"1").digest() * 4)[:_SCT_BODY]
    )
    sct_der = _SCT_EXTENSION_HEAD + sct_value

    extensions_content = b"".join(
        (
            template.leading_extensions_der,
            ski_der,
            template.issuer_extensions_der,
            san_der,
            template.policies_der,
            sct_der,
        )
    )
    _, validity_der = _validity_for_days(validity_days)
    tbs = encode_tlv(
        _SEQUENCE,
        b"".join(
            (
                _VERSION_DER,
                encode_tlv(_INTEGER, serial_content),
                template.algorithm_der,
                template.issuer_subject_der,
                validity_der,
                subject_der,
                spki_der,
                encode_tlv(_EXTENSIONS, encode_tlv(_SEQUENCE, extensions_content)),
            )
        ),
    )

    # Signature: template.issuer_key.sign(tbs, template.signature_algorithm).
    digest_head = (
        template.signer_owner
        + b":"
        + sha256(tbs + template.signer_owner).hexdigest().encode()
        + b":"
    )
    if template.rsa_signature_length:
        signature = sha256_counter_bytes(
            b"rsa-sig:" + digest_head, template.rsa_signature_length
        )
    else:
        signature = _ecdsa_signature(digest_head, template.ecdsa_coordinate_length)
    der = encode_tlv(
        _SEQUENCE,
        tbs + template.algorithm_der + encode_tlv(_BIT_STRING, b"\x00" + signature),
    )

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
    row = (
        len(subject_der),
        len(template.issuer_subject_der),
        len(spki_der),
        len(extensions_content),
        len(signature),
        max(len(der) - accounted, 0),
        len(der),
    )
    parts = LeafParts(
        subject_der, spki_der, key_identifier, serial_content, ski_value, ski_der,
        san_value, san_der, sct_value, sct_der, tbs, signature,
    )
    return der, row, parts


def issue_leaf_certificate(
    template: LeafTemplate,
    domain: str,
    san_names: Sequence[str],
    validity_days: int = 90,
) -> Certificate:
    """:func:`issue_leaf_fast` as a :class:`Certificate` (byte-identical to
    ``issue_leaf``), every field carrying its encoding as its memo."""
    der, row, parts = issue_leaf_fast(template, domain, san_names, validity_days)
    subject = DistinguishedName((RelativeName(_COMMON_NAME_OID, domain),))
    object.__setattr__(subject, "_encoded", parts.subject_der)
    key = PublicKey(template.key_algorithm, f"leaf:{domain}")
    object.__setattr__(key, "_spki_der", parts.spki_der)
    object.__setattr__(key, "_key_identifier", parts.key_identifier)
    ski = Extension(_SKI_OID, False, parts.ski_value)
    object.__setattr__(ski, "_encoded", parts.ski_der)
    san = Extension(_SAN_OID, False, parts.san_value)
    object.__setattr__(san, "_encoded", parts.san_der)
    sct = Extension(_SCT_OID, False, parts.sct_value)
    object.__setattr__(sct, "_encoded", parts.sct_der)
    validity, _ = _validity_for_days(validity_days)
    certificate = Certificate(
        subject=subject,
        issuer=template.issuer_subject,
        public_key=key,
        signature_algorithm=template.signature_algorithm,
        serial_number=int.from_bytes(parts.serial_content, "big"),
        validity=validity,
        extensions=(
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
        is_ca=False,
        der=der,
        tbs_der=parts.tbs,
        signature_value=parts.signature,
    )
    object.__setattr__(certificate, "_san_names", tuple(san_names))
    object.__setattr__(certificate, "_field_size_row", row)
    return certificate


# ---------------------------------------------------------------------------
# Leaf records: re-hydrating issued leaves without re-running issuance
# ---------------------------------------------------------------------------
#
# The persistent skeleton store (repro.scanners.skeleton_store) caches the
# generation phase's *output*, and most of that output's cost is leaf
# issuance: DER assembly, SPKI/key-identifier/SCT hashing, signing.  A leaf
# record is the per-leaf remainder of issue_leaf_fast — the finished DER and
# the field-size row — from which a warm start reassembles a byte-identical
# Certificate with zero hashing and zero DER encoding.  Everything else is a
# function of the leaf's template, its chain spec and the DER itself.

#: Extension tuple positions of the per-leaf extensions in issue_leaf_certificate's
#: nine-extension layout (SKI, SAN, SCT); every other position is shared with
#: the template or a module constant.
_SKI_POSITION, _SAN_POSITION, _SCT_POSITION = 3, 6, 8


def leaf_from_record(
    template: LeafTemplate,
    spec,
    der: bytes,
    field_size_row: Tuple[int, ...],
) -> Certificate:
    """Rebuild an :func:`issue_leaf_certificate` output from its DER and
    field-size row.

    ``spec`` is the leaf's :class:`~repro.webpki.skeleton.ChainSpec` (or
    anything with its ``domain``, ``validity_days`` and ``san_names()``).
    This is the warm path's hot loop — ~4k certificates per 5k-domain
    campaign — so only the fields the scan layer reads are populated
    eagerly.  Serial, subject DN, public key, validity, the extension tuple,
    the TBS and signature slices and the SAN names stay behind a
    ``(template, spec)`` record that :meth:`Certificate.__getattr__` expands
    on first access.  Key algorithm, field sizes and the SAN byte share are
    answered without expanding it.
    """
    certificate = Certificate.__new__(Certificate)
    certificate.__dict__.update(
        {
            "issuer": template.issuer_subject,
            "signature_algorithm": template.signature_algorithm,
            "is_ca": False,
            "der": der,
            "_field_size_row": field_size_row,
            "_deferred": (template, spec),
        }
    )
    return certificate


def deferred_san_size(record: tuple, field_size_row: Tuple[int, ...]) -> int:
    """Encoded size of the SAN extension of a ``_deferred`` leaf.

    Equal to the expanded extension's ``encoded_size()``: the row's
    extensions total minus the eight extensions whose sizes the template
    fixes, so SAN accounting never expands the record.
    """
    return field_size_row[3] - record[0].fixed_extensions_size


def _extension_value(extension_content: bytes) -> bytes:
    """The ``extnValue`` of an extension, given its SEQUENCE content."""
    *_, (_, value) = iter_tlvs(extension_content)
    return value


def expand_deferred_leaf_fields(der: bytes, record: tuple) -> dict:
    """Build the fields a ``_deferred`` leaf record postponed.

    Called (once per certificate, at most) by ``Certificate.__getattr__``
    when something reads a field the skeleton-store warm path left deferred.
    The serial, the TBS and signature slices and the three per-leaf
    extension values are read back out of the DER.
    """
    template, spec = record
    domain = spec.domain
    # der = SEQUENCE { tbs, signatureAlgorithm, BIT STRING { 00 || signature } }
    header = 2 + ((der[1] & 0x7F) if der[1] & 0x80 else 0)
    _, tbs_content, tbs_end = decode_tlv(der, header)
    _, signature_bits, _ = decode_tlv(der, tbs_end + len(template.algorithm_der))
    tbs_fields = [content for _, content in iter_tlvs(tbs_content)]
    # tbs_fields[7] is the [3] extensions wrapper: SEQUENCE { Extension... }.
    extensions = [content for _, content in iter_tlvs(decode_tlv(tbs_fields[7])[1])]
    ski = Extension(_SKI_OID, False, _extension_value(extensions[_SKI_POSITION]))
    san = Extension(_SAN_OID, False, _extension_value(extensions[_SAN_POSITION]))
    sct = Extension(_SCT_OID, False, _extension_value(extensions[_SCT_POSITION]))
    validity, _ = _validity_for_days(spec.validity_days)
    return {
        "serial_number": decode_integer(tbs_fields[1]),
        "subject": DistinguishedName((RelativeName(_COMMON_NAME_OID, domain),)),
        "public_key": PublicKey(template.key_algorithm, f"leaf:{domain}"),
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
        "tbs_der": der[header:tbs_end],
        "signature_value": signature_bits[1:],
        "_san_names": tuple(spec.san_names()),
    }
