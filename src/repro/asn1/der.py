"""DER primitive encoding and decoding (ITU-T X.690 subset).

Only definite-length encodings are produced and accepted, which is exactly what
DER requires.  The encoder favours explicitness over speed: every helper takes
and returns ``bytes`` so composite structures are built by simple concatenation
in the X.509 layer.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Iterator, Tuple

from .tags import Tag


class Asn1Error(ValueError):
    """Raised when DER bytes are malformed or a value cannot be encoded."""


# ---------------------------------------------------------------------------
# Length octets
# ---------------------------------------------------------------------------

def encode_length(length: int) -> bytes:
    """Encode a definite length in the short or long form."""
    if length < 0:
        raise Asn1Error(f"negative length: {length}")
    if length < 0x80:
        return bytes((length,))
    octets = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((0x80 | len(octets),)) + octets


def decode_length(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a definite length, returning ``(length, next_offset)``."""
    if offset >= len(data):
        raise Asn1Error("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    num_octets = first & 0x7F
    if num_octets == 0:
        raise Asn1Error("indefinite lengths are not allowed in DER")
    if offset + num_octets > len(data):
        raise Asn1Error("truncated long-form length")
    length = 0
    for i in range(num_octets):
        length = (length << 8) | data[offset + i]
    return length, offset + num_octets


# ---------------------------------------------------------------------------
# Generic TLV
# ---------------------------------------------------------------------------

def encode_tlv(tag: int, content: bytes) -> bytes:
    """Encode one tag-length-value triple."""
    length = len(content)
    if length < 0x80:
        # Short form: the tag and length are two octets (most TLVs).
        return bytes((tag, length)) + content
    return bytes((tag,)) + encode_length(length) + content


def decode_tlv(data: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Decode one TLV, returning ``(tag, content, next_offset)``."""
    if offset >= len(data):
        raise Asn1Error("truncated TLV: no tag")
    tag = data[offset]
    length, content_start = decode_length(data, offset + 1)
    content_end = content_start + length
    if content_end > len(data):
        raise Asn1Error("truncated TLV: content shorter than length")
    return tag, data[content_start:content_end], content_end


def iter_tlvs(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """Iterate over the TLVs that make up a constructed value's content."""
    offset = 0
    while offset < len(data):
        tag, content, offset = decode_tlv(data, offset)
        yield tag, content


# ---------------------------------------------------------------------------
# Primitive types
# ---------------------------------------------------------------------------

def encode_boolean(value: bool) -> bytes:
    return encode_tlv(Tag.BOOLEAN, b"\xff" if value else b"\x00")


def decode_boolean(content: bytes) -> bool:
    if len(content) != 1:
        raise Asn1Error("BOOLEAN content must be a single octet")
    # DER (X.690 §11.1) allows exactly 0x00 for FALSE and 0xFF for TRUE; the
    # BER laxity of "any nonzero octet is TRUE" must be rejected.
    if content == b"\x00":
        return False
    if content == b"\xff":
        return True
    raise Asn1Error(f"BOOLEAN content must be 0x00 or 0xFF, got 0x{content[0]:02x}")


def encode_integer(value: int) -> bytes:
    """Encode a (possibly large) signed integer.

    Certificate serial numbers and RSA moduli are encoded through this path,
    so the minimal-octets rule matters for getting sizes right.
    """
    # ``int.to_bytes(..., signed=True)`` at the minimal byte count is already
    # the canonical two's-complement encoding.  A value needs one byte per 8
    # magnitude bits plus room for the sign bit; negative values gain that room
    # at -(2^(8n-1)), hence the -value-1 bit length.
    if value >= 0:
        num_bytes = value.bit_length() // 8 + 1
    else:
        num_bytes = (-value - 1).bit_length() // 8 + 1
    return encode_tlv(Tag.INTEGER, value.to_bytes(num_bytes, "big", signed=True))


def decode_integer(content: bytes) -> int:
    if not content:
        raise Asn1Error("INTEGER content must not be empty")
    return int.from_bytes(content, "big", signed=True)


def encode_bit_string(data: bytes, unused_bits: int = 0) -> bytes:
    if not 0 <= unused_bits <= 7:
        raise Asn1Error(f"unused_bits out of range: {unused_bits}")
    return encode_tlv(Tag.BIT_STRING, bytes([unused_bits]) + data)


def decode_bit_string(content: bytes) -> Tuple[bytes, int]:
    if not content:
        raise Asn1Error("BIT STRING content must not be empty")
    unused = content[0]
    if unused > 7:
        raise Asn1Error(f"invalid unused-bit count: {unused}")
    return content[1:], unused


def encode_octet_string(data: bytes) -> bytes:
    return encode_tlv(Tag.OCTET_STRING, data)


def encode_null() -> bytes:
    return encode_tlv(Tag.NULL, b"")


def encode_utf8_string(text: str) -> bytes:
    return encode_tlv(Tag.UTF8_STRING, text.encode("utf-8"))


def encode_printable_string(text: str) -> bytes:
    return encode_tlv(Tag.PRINTABLE_STRING, text.encode("ascii"))


def encode_ia5_string(text: str) -> bytes:
    return encode_tlv(Tag.IA5_STRING, text.encode("ascii"))


def encode_utc_time(moment: datetime) -> bytes:
    """Encode a UTCTime (used for validity dates before 2050)."""
    moment = moment.astimezone(timezone.utc)
    return encode_tlv(Tag.UTC_TIME, moment.strftime("%y%m%d%H%M%SZ").encode("ascii"))


def encode_generalized_time(moment: datetime) -> bytes:
    moment = moment.astimezone(timezone.utc)
    return encode_tlv(
        Tag.GENERALIZED_TIME, moment.strftime("%Y%m%d%H%M%SZ").encode("ascii")
    )


# ---------------------------------------------------------------------------
# Constructed types
# ---------------------------------------------------------------------------

def encode_sequence(*components: bytes) -> bytes:
    return encode_tlv(Tag.SEQUENCE, b"".join(components))


def encode_set(*components: bytes) -> bytes:
    # DER requires SET OF elements to be sorted by their encoding.
    return encode_tlv(Tag.SET, b"".join(sorted(components)))


def encode_explicit(tag_number: int, inner: bytes) -> bytes:
    """Wrap an encoding in an explicit context-specific constructed tag."""
    return encode_tlv(Tag.context(tag_number, constructed=True), inner)
