"""Unit tests for distinguished names."""

from repro.asn1 import OID, decode_tlv
from repro.asn1.tags import Tag
from repro.x509.name import DistinguishedName, RelativeName


class TestRelativeName:
    def test_country_uses_printable_string(self):
        encoded = RelativeName(OID.COUNTRY, "US").encode()
        assert b"\x13\x02US" in encoded  # PrintableString "US"

    def test_other_attributes_use_utf8(self):
        encoded = RelativeName(OID.COMMON_NAME, "example.org").encode()
        assert b"\x0c\x0bexample.org" in encoded  # UTF8String


class TestDistinguishedName:
    def test_build_orders_attributes_conventionally(self):
        dn = DistinguishedName.build(common_name="x.org", organization="X", country="DE")
        attributes = [rdn.attribute for rdn in dn.rdns]
        assert (
            attributes.index(OID.COUNTRY)
            < attributes.index(OID.ORGANIZATION)
            < attributes.index(OID.COMMON_NAME)
        )

    def test_encode_is_sequence(self):
        dn = DistinguishedName.build(common_name="x.org")
        tag, _, consumed = decode_tlv(dn.encode())
        assert tag == Tag.SEQUENCE
        assert consumed == len(dn.encode())

    def test_accessors(self):
        dn = DistinguishedName.build(common_name="x.org", organization="Org")
        assert dn.common_name == "x.org"
        assert dn.organization == "Org"

    def test_missing_attributes_return_none(self):
        dn = DistinguishedName.build(organization="Org")
        assert dn.common_name is None

    def test_encoded_size_grows_with_attributes(self):
        short = DistinguishedName.build(common_name="a.io")
        long = DistinguishedName.build(
            common_name="a-very-long-common-name.example.org",
            organization="A Rather Long Organization Name LLC",
            country="US",
            state="California",
            locality="San Francisco",
        )
        assert len(long.encode()) > len(short.encode())

    def test_empty_name_encodes_to_empty_sequence(self):
        dn = DistinguishedName()
        assert dn.encode() == b"\x30\x00"
        assert len(dn.encode()) == 2

    def test_equal_names_have_equal_encodings(self):
        a = DistinguishedName.build(common_name="same.org", organization="Same")
        b = DistinguishedName.build(common_name="same.org", organization="Same")
        assert a.encode() == b.encode()
