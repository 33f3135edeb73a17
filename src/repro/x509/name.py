"""X.501 distinguished names (issuer / subject fields of a certificate)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..asn1 import (
    OID,
    ObjectIdentifier,
    encode_printable_string,
    encode_sequence,
    encode_set,
    encode_tlv,
    encode_utf8_string,
)
from ..asn1.tags import Tag


@dataclass(frozen=True)
class RelativeName:
    """One AttributeTypeAndValue, e.g. ``CN=example.org``."""

    attribute: ObjectIdentifier
    value: str

    def encode(self) -> bytes:
        # countryName must be PrintableString per RFC 5280; everything else we
        # emit as UTF8String, which is what modern CAs do.
        if self.attribute.dotted == OID.COUNTRY.dotted:
            value = encode_printable_string(self.value)
        else:
            value = encode_utf8_string(self.value)
        return encode_set(encode_sequence(self.attribute.encode(), value))


@dataclass(frozen=True)
class DistinguishedName:
    """An ordered RDNSequence."""

    rdns: Tuple[RelativeName, ...] = field(default_factory=tuple)

    @classmethod
    def build(
        cls,
        common_name: Optional[str] = None,
        organization: Optional[str] = None,
        country: Optional[str] = None,
        org_unit: Optional[str] = None,
        locality: Optional[str] = None,
        state: Optional[str] = None,
    ) -> "DistinguishedName":
        """Build a DN in the conventional C, ST, L, O, OU, CN order."""
        rdns: List[RelativeName] = []
        if country:
            rdns.append(RelativeName(OID.COUNTRY, country))
        if state:
            rdns.append(RelativeName(OID.STATE, state))
        if locality:
            rdns.append(RelativeName(OID.LOCALITY, locality))
        if organization:
            rdns.append(RelativeName(OID.ORGANIZATION, organization))
        if org_unit:
            rdns.append(RelativeName(OID.ORG_UNIT, org_unit))
        if common_name:
            rdns.append(RelativeName(OID.COMMON_NAME, common_name))
        return cls(tuple(rdns))

    def encode(self) -> bytes:
        # Memoized on the frozen instance: issuer DNs are encoded once per
        # issued leaf, and chain-hygiene checks re-encode subjects repeatedly.
        cached = getattr(self, "_encoded", None)
        if cached is None:
            cached = encode_tlv(Tag.SEQUENCE, b"".join(rdn.encode() for rdn in self.rdns))
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def common_name(self) -> Optional[str]:
        for rdn in self.rdns:
            if rdn.attribute.dotted == OID.COMMON_NAME.dotted:
                return rdn.value
        return None

    @property
    def organization(self) -> Optional[str]:
        for rdn in self.rdns:
            if rdn.attribute.dotted == OID.ORGANIZATION.dotted:
                return rdn.value
        return None

    def encoded_size(self) -> int:
        return len(self.encode())
