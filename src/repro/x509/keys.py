"""Public key and signature algorithm models.

The project does not perform real cryptography.  It models public keys and
signatures so that their DER encodings have exactly the sizes real keys and
signatures would have, because those sizes determine certificate-chain sizes
and hence QUIC handshake behaviour (the paper's Table 2 and Figure 8).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from ..asn1 import (
    OID,
    encode_bit_string,
    encode_integer,
    encode_null,
    encode_sequence,
)


class KeyAlgorithm(Enum):
    """Public-key algorithm and size, the granularity used in the paper."""

    RSA_2048 = ("RSA", 2048)
    RSA_3072 = ("RSA", 3072)
    RSA_4096 = ("RSA", 4096)
    ECDSA_P256 = ("ECDSA", 256)
    ECDSA_P384 = ("ECDSA", 384)

    def __init__(self, family: str, bits: int) -> None:
        self.family = family
        self.bits = bits

    @property
    def is_rsa(self) -> bool:
        return self.family == "RSA"

    @property
    def is_ecdsa(self) -> bool:
        return self.family == "ECDSA"

    @property
    def label(self) -> str:
        return f"{self.family}-{self.bits}"


class SignatureAlgorithm(Enum):
    """Signature algorithms seen in the wild for Web PKI certificates."""

    SHA256_WITH_RSA = ("RSA", 256, OID.SHA256_WITH_RSA)
    SHA384_WITH_RSA = ("RSA", 384, OID.SHA384_WITH_RSA)
    ECDSA_WITH_SHA256 = ("ECDSA", 256, OID.ECDSA_WITH_SHA256)
    ECDSA_WITH_SHA384 = ("ECDSA", 384, OID.ECDSA_WITH_SHA384)

    def __init__(self, family: str, hash_bits: int, oid) -> None:
        self.family = family
        self.hash_bits = hash_bits
        self.oid = oid

    def encode_algorithm_identifier(self) -> bytes:
        """Encode the AlgorithmIdentifier SEQUENCE for this signature."""
        if self.family == "RSA":
            return encode_sequence(self.oid.encode(), encode_null())
        return encode_sequence(self.oid.encode())

    @staticmethod
    def for_signer(key: "PublicKey") -> "SignatureAlgorithm":
        """The signature algorithm a CA with ``key`` typically uses."""
        if key.algorithm.is_rsa:
            return SignatureAlgorithm.SHA256_WITH_RSA
        if key.algorithm is KeyAlgorithm.ECDSA_P384:
            return SignatureAlgorithm.ECDSA_WITH_SHA384
        return SignatureAlgorithm.ECDSA_WITH_SHA256


def _deterministic_bytes(seed: str, length: int) -> bytes:
    """Expand ``seed`` into ``length`` pseudo-random bytes (SHA-256 counter mode).

    Block ``i`` is ``SHA-256("<seed>:<i>")``; the seed is encoded once.
    """
    return sha256_counter_bytes(f"{seed}:".encode(), length)


def sha256_counter_bytes(head: bytes, length: int) -> bytes:
    """:func:`_deterministic_bytes` of an already encoded ``b"<seed>:"`` head."""
    sha256 = hashlib.sha256
    blocks = b"".join([sha256(head + b"%d" % i).digest() for i in range((length + 31) // 32)])
    return blocks[:length]


@dataclass(frozen=True)
class PublicKey:
    """A modelled public key bound to an owner identity (for determinism)."""

    algorithm: KeyAlgorithm
    owner: str

    def spki_der(self) -> bytes:
        """Encode the SubjectPublicKeyInfo structure (RFC 5280 §4.1.2.7).

        Memoized on the frozen instance: every leaf issuance asks for the SPKI
        at least twice (key identifier + TBS encoding) and issuer keys are
        asked once per issued leaf.
        """
        cached = getattr(self, "_spki_der", None)
        if cached is None:
            cached = self._build_spki_der()
            object.__setattr__(self, "_spki_der", cached)
        return cached

    def _build_spki_der(self) -> bytes:
        if self.algorithm.is_rsa:
            modulus_len = self.algorithm.bits // 8
            modulus_bytes = _deterministic_bytes(f"rsa-mod:{self.owner}", modulus_len)
            # Force the top bit so the modulus has full bit length, and make it odd.
            modulus = int.from_bytes(modulus_bytes, "big") | (1 << (self.algorithm.bits - 1)) | 1
            rsa_key = encode_sequence(encode_integer(modulus), encode_integer(65537))
            algorithm = encode_sequence(OID.RSA_ENCRYPTION.encode(), encode_null())
            return encode_sequence(algorithm, encode_bit_string(rsa_key))
        # ECDSA: uncompressed point, 0x04 || X || Y.
        coord_len = self.algorithm.bits // 8
        point = b"\x04" + _deterministic_bytes(f"ec-point:{self.owner}", 2 * coord_len)
        curve = OID.CURVE_P256 if self.algorithm is KeyAlgorithm.ECDSA_P256 else OID.CURVE_P384
        algorithm = encode_sequence(OID.EC_PUBLIC_KEY.encode(), curve.encode())
        return encode_sequence(algorithm, encode_bit_string(point))

    def key_identifier(self) -> bytes:
        """A 20-byte key identifier (SHA-1-sized) derived from the SPKI."""
        cached = getattr(self, "_key_identifier", None)
        if cached is None:
            cached = hashlib.sha256(self.spki_der()).digest()[:20]
            object.__setattr__(self, "_key_identifier", cached)
        return cached

    def sign(self, message: bytes, algorithm: SignatureAlgorithm) -> bytes:
        """Produce a signature *value* with realistic length for ``algorithm``.

        RSA signatures are exactly the modulus size.  ECDSA signatures are a
        DER SEQUENCE of two integers whose encoded size matches real-world
        signatures (70–72 bytes for P-256, 102–104 for P-384).
        """
        digest = hashlib.sha256(message + self.owner.encode()).digest()
        if algorithm.family == "RSA":
            length = self.algorithm.bits // 8 if self.algorithm.is_rsa else 256
            return _deterministic_bytes(f"rsa-sig:{self.owner}:{digest.hex()}", length)
        coord_len = 48 if algorithm is SignatureAlgorithm.ECDSA_WITH_SHA384 else 32
        r_bytes = _deterministic_bytes(f"ecdsa-r:{self.owner}:{digest.hex()}", coord_len)
        s_bytes = _deterministic_bytes(f"ecdsa-s:{self.owner}:{digest.hex()}", coord_len)
        r = int.from_bytes(r_bytes, "big") | (1 << (coord_len * 8 - 1))
        s = int.from_bytes(s_bytes, "big") | (1 << (coord_len * 8 - 1))
        return encode_sequence(encode_integer(r), encode_integer(s))
