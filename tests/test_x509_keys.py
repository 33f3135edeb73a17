"""Unit tests for the public key / signature size models."""

from repro.asn1 import decode_tlv, iter_tlvs
from repro.asn1.tags import Tag
from repro.x509.keys import KeyAlgorithm, PublicKey, SignatureAlgorithm


class TestKeyAlgorithm:
    def test_families(self):
        assert KeyAlgorithm.RSA_2048.is_rsa
        assert not KeyAlgorithm.ECDSA_P256.is_rsa

    def test_labels(self):
        assert KeyAlgorithm.RSA_4096.label == "RSA-4096"
        assert KeyAlgorithm.ECDSA_P384.label == "ECDSA-384"


class TestSpkiSizes:
    def test_rsa_2048_spki_size_realistic(self):
        spki = PublicKey(KeyAlgorithm.RSA_2048, "owner").spki_der()
        # Real RSA-2048 SPKI structures are 294 bytes.
        assert 290 <= len(spki) <= 300

    def test_rsa_4096_spki_size_realistic(self):
        spki = PublicKey(KeyAlgorithm.RSA_4096, "owner").spki_der()
        assert 540 <= len(spki) <= 560

    def test_ecdsa_p256_spki_size_realistic(self):
        spki = PublicKey(KeyAlgorithm.ECDSA_P256, "owner").spki_der()
        # Real P-256 SPKI structures are 91 bytes.
        assert 85 <= len(spki) <= 95

    def test_ecdsa_p384_spki_size_realistic(self):
        spki = PublicKey(KeyAlgorithm.ECDSA_P384, "owner").spki_der()
        assert 115 <= len(spki) <= 125

    def test_spki_is_valid_der_sequence(self):
        spki = PublicKey(KeyAlgorithm.ECDSA_P256, "owner").spki_der()
        tag, content, consumed = decode_tlv(spki)
        assert tag == Tag.SEQUENCE
        assert consumed == len(spki)
        children = list(iter_tlvs(content))
        assert len(children) == 2  # AlgorithmIdentifier, subjectPublicKey

    def test_determinism(self):
        a = PublicKey(KeyAlgorithm.RSA_2048, "same-owner").spki_der()
        b = PublicKey(KeyAlgorithm.RSA_2048, "same-owner").spki_der()
        assert a == b

    def test_different_owners_have_different_keys(self):
        a = PublicKey(KeyAlgorithm.RSA_2048, "owner-a").spki_der()
        b = PublicKey(KeyAlgorithm.RSA_2048, "owner-b").spki_der()
        assert a != b
        assert len(a) == len(b)

    def test_key_identifier_is_20_bytes(self):
        assert len(PublicKey(KeyAlgorithm.ECDSA_P256, "o").key_identifier()) == 20


class TestSignatures:
    def test_rsa_signature_length_matches_modulus(self):
        key = PublicKey(KeyAlgorithm.RSA_2048, "signer")
        signature = key.sign(b"message", SignatureAlgorithm.SHA256_WITH_RSA)
        assert len(signature) == 256

    def test_rsa_4096_signature_length(self):
        key = PublicKey(KeyAlgorithm.RSA_4096, "signer")
        assert len(key.sign(b"m", SignatureAlgorithm.SHA256_WITH_RSA)) == 512

    def test_ecdsa_p256_signature_length_realistic(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P256, "signer")
        signature = key.sign(b"message", SignatureAlgorithm.ECDSA_WITH_SHA256)
        assert 68 <= len(signature) <= 74

    def test_ecdsa_p384_signature_length_realistic(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P384, "signer")
        signature = key.sign(b"message", SignatureAlgorithm.ECDSA_WITH_SHA384)
        assert 100 <= len(signature) <= 106

    def test_signature_depends_on_message(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P256, "signer")
        assert key.sign(b"a", SignatureAlgorithm.ECDSA_WITH_SHA256) != key.sign(
            b"b", SignatureAlgorithm.ECDSA_WITH_SHA256
        )

    def test_signature_deterministic(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P256, "signer")
        assert key.sign(b"a", SignatureAlgorithm.ECDSA_WITH_SHA256) == key.sign(
            b"a", SignatureAlgorithm.ECDSA_WITH_SHA256
        )


class TestSignatureAlgorithmSelection:
    def test_rsa_signer_uses_rsa_signature(self):
        key = PublicKey(KeyAlgorithm.RSA_2048, "ca")
        assert SignatureAlgorithm.for_signer(key) is SignatureAlgorithm.SHA256_WITH_RSA

    def test_p384_signer_uses_sha384(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P384, "ca")
        assert SignatureAlgorithm.for_signer(key) is SignatureAlgorithm.ECDSA_WITH_SHA384

    def test_p256_signer_uses_sha256(self):
        key = PublicKey(KeyAlgorithm.ECDSA_P256, "ca")
        assert SignatureAlgorithm.for_signer(key) is SignatureAlgorithm.ECDSA_WITH_SHA256

    def test_algorithm_identifier_rsa_has_null_params(self):
        encoded = SignatureAlgorithm.SHA256_WITH_RSA.encode_algorithm_identifier()
        assert encoded.endswith(b"\x05\x00")

    def test_algorithm_identifier_ecdsa_has_no_params(self):
        encoded = SignatureAlgorithm.ECDSA_WITH_SHA256.encode_algorithm_identifier()
        assert not encoded.endswith(b"\x05\x00")
