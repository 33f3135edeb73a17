"""Minimal ASN.1 DER encoder/decoder.

This subpackage implements the subset of DER (Distinguished Encoding Rules,
ITU-T X.690) needed to build and size real X.509 v3 certificates:

* tag/length/value framing with definite lengths,
* the universal types used by RFC 5280 (BOOLEAN, INTEGER, BIT STRING,
  OCTET STRING, NULL, OBJECT IDENTIFIER, UTF8String, PrintableString,
  IA5String, UTCTime, SEQUENCE, SET),
* explicit context-specific tagging as used by ``TBSCertificate``.

The reproduction uses this to *actually encode* certificates so that every
certificate size reported by the analysis is the size of real DER bytes, not a
guess.  A small decoder is provided as well so tests can round-trip structures
and scanners can re-parse what servers deliver.
"""

from .der import (
    Asn1Error,
    encode_tlv,
    encode_length,
    decode_length,
    encode_boolean,
    decode_boolean,
    encode_integer,
    decode_integer,
    encode_bit_string,
    decode_bit_string,
    encode_octet_string,
    encode_null,
    encode_utf8_string,
    encode_printable_string,
    encode_ia5_string,
    encode_utc_time,
    encode_sequence,
    encode_set,
    encode_explicit,
    decode_tlv,
    iter_tlvs,
)
from .oid import ObjectIdentifier, OID, encode_oid, decode_oid
from .tags import Tag

__all__ = [
    "Asn1Error",
    "Tag",
    "ObjectIdentifier",
    "OID",
    "encode_oid",
    "decode_oid",
    "encode_tlv",
    "encode_length",
    "decode_length",
    "encode_boolean",
    "decode_boolean",
    "encode_integer",
    "decode_integer",
    "encode_bit_string",
    "decode_bit_string",
    "encode_octet_string",
    "encode_null",
    "encode_utf8_string",
    "encode_printable_string",
    "encode_ia5_string",
    "encode_utc_time",
    "encode_sequence",
    "encode_set",
    "encode_explicit",
    "decode_tlv",
    "iter_tlvs",
]
