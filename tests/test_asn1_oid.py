"""Unit tests for OID encoding."""

import pytest

from repro.asn1 import OID, Asn1Error, decode_oid, decode_tlv, encode_oid
from repro.asn1.oid import ObjectIdentifier
from repro.asn1.tags import Tag


class TestOidEncoding:
    def test_common_name_oid_bytes(self):
        # 2.5.4.3 encodes to 55 04 03.
        assert encode_oid("2.5.4.3") == b"\x06\x03\x55\x04\x03"

    def test_rsa_encryption_oid_bytes(self):
        # Known DER for 1.2.840.113549.1.1.1.
        assert encode_oid("1.2.840.113549.1.1.1") == bytes.fromhex("06092a864886f70d010101")

    @pytest.mark.parametrize(
        "dotted",
        [
            "2.5.4.3",
            "1.2.840.113549.1.1.11",
            "1.3.6.1.5.5.7.3.1",
            "2.23.140.1.2.1",
            "1.3.6.1.4.1.11129.2.4.2",
        ],
    )
    def test_roundtrip(self, dotted):
        tag, content, _ = decode_tlv(encode_oid(dotted))
        assert tag == Tag.OBJECT_IDENTIFIER
        assert decode_oid(content) == dotted

    def test_single_arc_rejected(self):
        with pytest.raises(Asn1Error):
            encode_oid("2")

    def test_invalid_root_rejected(self):
        with pytest.raises(Asn1Error):
            encode_oid("3.1")
        with pytest.raises(Asn1Error):
            encode_oid("1.40")

    def test_decode_empty_rejected(self):
        with pytest.raises(Asn1Error):
            decode_oid(b"")

    def test_decode_truncated_arc_rejected(self):
        with pytest.raises(Asn1Error):
            decode_oid(b"\x55\x84")  # continuation bit set but no next octet


class TestOidRegistry:
    def test_registry_names_are_consistent(self):
        assert OID.COMMON_NAME.name == "commonName"
        assert OID.SUBJECT_ALT_NAME.dotted == "2.5.29.17"
        assert OID.SHA256_WITH_RSA.dotted == "1.2.840.113549.1.1.11"

    def test_object_identifier_encode_helper(self):
        oid = ObjectIdentifier("2.5.29.17", "subjectAltName")
        assert oid.encode() == encode_oid("2.5.29.17")

    def test_registry_oids_all_encode(self):
        for attribute in vars(OID).values():
            if isinstance(attribute, ObjectIdentifier):
                encoded = attribute.encode()
                assert encoded[0] == Tag.OBJECT_IDENTIFIER
                _, content, _ = decode_tlv(encoded)
                assert decode_oid(content) == attribute.dotted
