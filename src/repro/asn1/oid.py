"""Object identifiers used across X.509, TLS signature algorithms and PKIX."""

from __future__ import annotations

from dataclasses import dataclass

from .der import Asn1Error, encode_tlv
from .tags import Tag


@dataclass(frozen=True)
class ObjectIdentifier:
    """An OID with a human-readable name for reporting."""

    dotted: str
    name: str = ""

    def encode(self) -> bytes:
        # Memoized on the frozen instance: the OID registry is a fixed set of
        # objects that leaf issuance encodes millions of times per campaign.
        encoded = getattr(self, "_encoded", None)
        if encoded is None:
            encoded = encode_oid(self.dotted)
            object.__setattr__(self, "_encoded", encoded)
        return encoded


def encode_oid(dotted: str) -> bytes:
    """Encode a dotted OID string as a DER OBJECT IDENTIFIER."""
    arcs = [int(part) for part in dotted.split(".") if part != ""]
    if len(arcs) < 2:
        raise Asn1Error(f"OID needs at least two arcs: {dotted!r}")
    if arcs[0] > 2 or (arcs[0] < 2 and arcs[1] > 39):
        raise Asn1Error(f"invalid OID root arcs: {dotted!r}")
    body = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        body.extend(_encode_base128(arc))
    return encode_tlv(Tag.OBJECT_IDENTIFIER, bytes(body))


def decode_oid(content: bytes) -> str:
    """Decode the content octets of an OBJECT IDENTIFIER to dotted form."""
    if not content:
        raise Asn1Error("empty OID content")
    first = content[0]
    arcs = [first // 40 if first < 80 else 2, first % 40 if first < 80 else first - 80]
    value = 0
    in_progress = False
    for octet in content[1:]:
        value = (value << 7) | (octet & 0x7F)
        in_progress = bool(octet & 0x80)
        if not in_progress:
            arcs.append(value)
            value = 0
    if in_progress:
        raise Asn1Error("truncated OID arc")
    return ".".join(str(a) for a in arcs)


def _encode_base128(value: int) -> bytes:
    if value < 0:
        raise Asn1Error("OID arcs must be non-negative")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    chunks.reverse()
    return bytes(chunks)


class OID:
    """Registry of the OIDs this project uses."""

    # Name attribute types
    COMMON_NAME = ObjectIdentifier("2.5.4.3", "commonName")
    COUNTRY = ObjectIdentifier("2.5.4.6", "countryName")
    LOCALITY = ObjectIdentifier("2.5.4.7", "localityName")
    STATE = ObjectIdentifier("2.5.4.8", "stateOrProvinceName")
    ORGANIZATION = ObjectIdentifier("2.5.4.10", "organizationName")
    ORG_UNIT = ObjectIdentifier("2.5.4.11", "organizationalUnitName")

    # Public key algorithms
    RSA_ENCRYPTION = ObjectIdentifier("1.2.840.113549.1.1.1", "rsaEncryption")
    EC_PUBLIC_KEY = ObjectIdentifier("1.2.840.10045.2.1", "id-ecPublicKey")
    CURVE_P256 = ObjectIdentifier("1.2.840.10045.3.1.7", "prime256v1")
    CURVE_P384 = ObjectIdentifier("1.3.132.0.34", "secp384r1")

    # Signature algorithms
    SHA256_WITH_RSA = ObjectIdentifier("1.2.840.113549.1.1.11", "sha256WithRSAEncryption")
    SHA384_WITH_RSA = ObjectIdentifier("1.2.840.113549.1.1.12", "sha384WithRSAEncryption")
    ECDSA_WITH_SHA256 = ObjectIdentifier("1.2.840.10045.4.3.2", "ecdsa-with-SHA256")
    ECDSA_WITH_SHA384 = ObjectIdentifier("1.2.840.10045.4.3.3", "ecdsa-with-SHA384")

    # Extensions
    SUBJECT_KEY_IDENTIFIER = ObjectIdentifier("2.5.29.14", "subjectKeyIdentifier")
    KEY_USAGE = ObjectIdentifier("2.5.29.15", "keyUsage")
    SUBJECT_ALT_NAME = ObjectIdentifier("2.5.29.17", "subjectAltName")
    BASIC_CONSTRAINTS = ObjectIdentifier("2.5.29.19", "basicConstraints")
    CRL_DISTRIBUTION_POINTS = ObjectIdentifier("2.5.29.31", "cRLDistributionPoints")
    CERTIFICATE_POLICIES = ObjectIdentifier("2.5.29.32", "certificatePolicies")
    AUTHORITY_KEY_IDENTIFIER = ObjectIdentifier("2.5.29.35", "authorityKeyIdentifier")
    EXTENDED_KEY_USAGE = ObjectIdentifier("2.5.29.37", "extKeyUsage")
    AUTHORITY_INFO_ACCESS = ObjectIdentifier("1.3.6.1.5.5.7.1.1", "authorityInfoAccess")
    SCT_LIST = ObjectIdentifier("1.3.6.1.4.1.11129.2.4.2", "signedCertificateTimestampList")

    # Extended key usage purposes
    SERVER_AUTH = ObjectIdentifier("1.3.6.1.5.5.7.3.1", "serverAuth")
    CLIENT_AUTH = ObjectIdentifier("1.3.6.1.5.5.7.3.2", "clientAuth")

    # Access methods
    OCSP = ObjectIdentifier("1.3.6.1.5.5.7.48.1", "ocsp")
    CA_ISSUERS = ObjectIdentifier("1.3.6.1.5.5.7.48.2", "caIssuers")

    # Policy identifiers
    DOMAIN_VALIDATED = ObjectIdentifier("2.23.140.1.2.1", "domain-validated")
    ORGANIZATION_VALIDATED = ObjectIdentifier("2.23.140.1.2.2", "organization-validated")
