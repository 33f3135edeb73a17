"""Unit tests for certificate construction."""

from repro.asn1 import OID, decode_tlv, iter_tlvs
from repro.asn1.tags import Tag
from repro.x509 import (
    CertificateBuilder,
    DistinguishedName,
    KeyAlgorithm,
    PublicKey,
    SubjectAlternativeName,
    Validity,
)
from repro.x509.certificate import serial_from_seed
from repro.x509.extensions import BasicConstraints, KeyUsage


def _build_certificate(key_algorithm=KeyAlgorithm.ECDSA_P256, issuer_algorithm=KeyAlgorithm.RSA_2048):
    subject = DistinguishedName.build(common_name="unit.example.org")
    issuer = DistinguishedName.build(common_name="Unit Test CA", organization="Unit", country="US")
    issuer_key = PublicKey(issuer_algorithm, "unit-ca")
    builder = CertificateBuilder(
        subject=subject,
        issuer=issuer,
        public_key=PublicKey(key_algorithm, "unit-leaf"),
        issuer_key=issuer_key,
        validity=Validity.for_days(90),
        serial_number=serial_from_seed("unit-test"),
        extensions=[
            BasicConstraints(ca=False),
            KeyUsage(digital_signature=True),
            SubjectAlternativeName(["unit.example.org"]),
        ],
        san_names=("unit.example.org",),
    )
    return builder.build()


class TestCertificateStructure:
    def test_der_is_a_sequence_of_three_components(self):
        certificate = _build_certificate()
        tag, content, consumed = decode_tlv(certificate.der)
        assert tag == Tag.SEQUENCE
        assert consumed == len(certificate.der)
        children = list(iter_tlvs(content))
        assert len(children) == 3  # tbsCertificate, signatureAlgorithm, signatureValue

    def test_size_equals_der_length(self):
        certificate = _build_certificate()
        assert certificate.size == len(certificate.der)

    def test_tbs_is_embedded_in_der(self):
        certificate = _build_certificate()
        assert certificate.tbs_der in certificate.der

    def test_accessors(self):
        certificate = _build_certificate()
        assert certificate.subject_common_name == "unit.example.org"
        assert certificate.issuer.common_name == "Unit Test CA"
        assert certificate.is_self_signed is False
        assert certificate.key_algorithm is KeyAlgorithm.ECDSA_P256
        assert certificate.san_names == ("unit.example.org",)

    def test_extension_lookup(self):
        certificate = _build_certificate()
        assert certificate.extension(OID.SUBJECT_ALT_NAME.dotted) is not None
        assert certificate.extension("1.2.3.4") is None

    def test_rsa_signed_cert_larger_than_ecdsa_signed(self):
        rsa_signed = _build_certificate(issuer_algorithm=KeyAlgorithm.RSA_4096)
        ec_signed = _build_certificate(issuer_algorithm=KeyAlgorithm.ECDSA_P256)
        assert rsa_signed.size > ec_signed.size + 300

    def test_leaf_sizes_are_realistic(self):
        ecdsa = _build_certificate(key_algorithm=KeyAlgorithm.ECDSA_P256)
        rsa = _build_certificate(key_algorithm=KeyAlgorithm.RSA_2048)
        # A minimally-extended DV leaf; real-world leaves are 0.8-1.6 kB, this
        # one omits AIA/SCTs so it sits a bit below that.
        assert 400 <= ecdsa.size <= 1600
        assert rsa.size > ecdsa.size


class TestValidity:
    def test_for_days(self):
        validity = Validity.for_days(90)
        assert (validity.not_after - validity.not_before).days == 90

    def test_encoding_contains_two_utc_times(self):
        encoded = Validity.for_days(30).encode()
        _, content, _ = decode_tlv(encoded)
        children = list(iter_tlvs(content))
        assert len(children) == 2
        assert all(tag == Tag.UTC_TIME for tag, _ in children)


class TestSerials:
    def test_serial_is_positive_and_large(self):
        serial = serial_from_seed("abc")
        assert serial > 0
        assert serial.bit_length() >= 120

    def test_serial_deterministic_and_distinct(self):
        assert serial_from_seed("abc") == serial_from_seed("abc")
        assert serial_from_seed("abc") != serial_from_seed("abd")
