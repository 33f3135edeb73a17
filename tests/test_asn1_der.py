"""Unit tests for the DER encoder/decoder."""

from datetime import datetime, timezone

import pytest

from repro.asn1 import (
    Asn1Error,
    decode_boolean,
    decode_bit_string,
    decode_integer,
    decode_length,
    decode_tlv,
    encode_boolean,
    encode_bit_string,
    encode_explicit,
    encode_ia5_string,
    encode_integer,
    encode_length,
    encode_null,
    encode_octet_string,
    encode_printable_string,
    encode_sequence,
    encode_set,
    encode_tlv,
    encode_utc_time,
    encode_utf8_string,
    iter_tlvs,
)
from repro.asn1.tags import Tag


class TestLengthEncoding:
    def test_short_form(self):
        assert encode_length(0) == b"\x00"
        assert encode_length(127) == b"\x7f"

    def test_long_form_one_octet(self):
        assert encode_length(128) == b"\x81\x80"
        assert encode_length(255) == b"\x81\xff"

    def test_long_form_two_octets(self):
        assert encode_length(256) == b"\x82\x01\x00"
        assert encode_length(65535) == b"\x82\xff\xff"

    def test_negative_length_rejected(self):
        with pytest.raises(Asn1Error):
            encode_length(-1)

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, 1000, 65536, 10**6])
    def test_roundtrip(self, value):
        encoded = encode_length(value)
        decoded, offset = decode_length(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_decode_truncated(self):
        with pytest.raises(Asn1Error):
            decode_length(b"", 0)
        with pytest.raises(Asn1Error):
            decode_length(b"\x82\x01", 0)

    def test_indefinite_length_rejected(self):
        with pytest.raises(Asn1Error):
            decode_length(b"\x80", 0)


class TestInteger:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 256, -1, -128, -129, 2**64, 65537, -(2**70)]
    )
    def test_roundtrip(self, value):
        tag, content, _ = decode_tlv(encode_integer(value))
        assert tag == Tag.INTEGER
        assert decode_integer(content) == value

    def test_zero_is_single_octet(self):
        assert encode_integer(0) == b"\x02\x01\x00"

    def test_positive_with_high_bit_gets_leading_zero(self):
        # 128 = 0x80 needs a leading 0x00 so it is not interpreted as negative.
        assert encode_integer(128) == b"\x02\x02\x00\x80"

    def test_minimal_encoding_no_redundant_octets(self):
        # 255 encodes as 00 FF (two octets), not 00 00 FF.
        assert encode_integer(255) == b"\x02\x02\x00\xff"

    @pytest.mark.parametrize(
        "value, content",
        [
            (-129, b"\xff\x7f"),
            (-128, b"\x80"),
            (0, b"\x00"),
            (127, b"\x7f"),
            (128, b"\x00\x80"),
        ],
    )
    def test_boundary_values_canonical_and_roundtrip(self, value, content):
        encoded = encode_integer(value)
        tag, decoded_content, _ = decode_tlv(encoded)
        assert tag == Tag.INTEGER
        assert decoded_content == content
        assert decode_integer(decoded_content) == value

    def test_decode_empty_rejected(self):
        with pytest.raises(Asn1Error):
            decode_integer(b"")


class TestBoolean:
    def test_true_false(self):
        assert encode_boolean(True) == b"\x01\x01\xff"
        assert encode_boolean(False) == b"\x01\x01\x00"

    def test_roundtrip(self):
        for value in (True, False):
            _, content, _ = decode_tlv(encode_boolean(value))
            assert decode_boolean(content) is value

    def test_decode_wrong_length(self):
        with pytest.raises(Asn1Error):
            decode_boolean(b"\xff\xff")

    @pytest.mark.parametrize("octet", [0x01, 0x7F, 0x80, 0xFE])
    def test_der_rejects_nonstandard_true_octets(self, octet):
        # BER accepts any nonzero octet as TRUE; DER (X.690 §11.1) does not.
        with pytest.raises(Asn1Error):
            decode_boolean(bytes([octet]))


class TestBitString:
    def test_prepends_unused_bit_count(self):
        encoded = encode_bit_string(b"\xab\xcd", unused_bits=4)
        tag, content, _ = decode_tlv(encoded)
        assert tag == Tag.BIT_STRING
        data, unused = decode_bit_string(content)
        assert data == b"\xab\xcd"
        assert unused == 4

    def test_invalid_unused_bits(self):
        with pytest.raises(Asn1Error):
            encode_bit_string(b"", unused_bits=8)

    def test_decode_empty_rejected(self):
        with pytest.raises(Asn1Error):
            decode_bit_string(b"")


class TestStringsAndTime:
    def test_utf8_string(self):
        encoded = encode_utf8_string("exämple")
        tag, content, _ = decode_tlv(encoded)
        assert tag == Tag.UTF8_STRING
        assert content.decode("utf-8") == "exämple"

    def test_printable_and_ia5(self):
        assert decode_tlv(encode_printable_string("US"))[1] == b"US"
        assert decode_tlv(encode_ia5_string("dns.example.org"))[1] == b"dns.example.org"

    def test_utc_time_format(self):
        moment = datetime(2022, 9, 10, 12, 34, 56, tzinfo=timezone.utc)
        _, content, _ = decode_tlv(encode_utc_time(moment))
        assert content == b"220910123456Z"

    def test_null_and_octet_string(self):
        assert encode_null() == b"\x05\x00"
        tag, content, _ = decode_tlv(encode_octet_string(b"\x01\x02"))
        assert tag == Tag.OCTET_STRING and content == b"\x01\x02"


class TestConstructed:
    def test_sequence_concatenates_components(self):
        inner_a = encode_integer(1)
        inner_b = encode_integer(2)
        tag, content, _ = decode_tlv(encode_sequence(inner_a, inner_b))
        assert tag == Tag.SEQUENCE
        assert content == inner_a + inner_b

    def test_set_sorts_components(self):
        a = encode_integer(2)
        b = encode_integer(1)
        _, content, _ = decode_tlv(encode_set(a, b))
        assert content == b"".join(sorted([a, b]))

    def test_explicit_tagging(self):
        inner = encode_integer(2)
        encoded = encode_explicit(0, inner)
        assert encoded[0] == 0xA0
        _, content, _ = decode_tlv(encoded)
        assert content == inner

    def test_iter_tlvs_walks_all_children(self):
        children = [encode_integer(i) for i in range(5)]
        _, content, _ = decode_tlv(encode_sequence(*children))
        parsed = list(iter_tlvs(content))
        assert len(parsed) == 5
        assert [decode_integer(c) for _, c in parsed] == list(range(5))

    def test_decode_truncated_content(self):
        valid = encode_tlv(Tag.OCTET_STRING, b"abcdef")
        with pytest.raises(Asn1Error):
            decode_tlv(valid[:-1])

    def test_total_size_matches_length_header(self):
        payload = b"x" * 300
        encoded = encode_octet_string(payload)
        # 1 tag byte + 3 length bytes (0x82 + 2) + payload
        assert len(encoded) == 1 + 3 + 300
