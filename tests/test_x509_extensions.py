"""Unit tests for X.509 v3 extensions."""

from repro.asn1 import OID, decode_tlv
from repro.x509.extensions import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CertificatePolicies,
    CrlDistributionPoints,
    ExtendedKeyUsage,
    KeyUsage,
    SignedCertificateTimestamps,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
    encode_extensions,
)


class TestBasicConstraints:
    def test_ca_true_encoded(self):
        extension = BasicConstraints(ca=True, path_length=0)
        assert extension.oid.dotted == OID.BASIC_CONSTRAINTS.dotted
        assert extension.critical is True
        assert b"\x01\x01\xff" in extension.value  # BOOLEAN TRUE

    def test_leaf_basic_constraints_is_empty_sequence(self):
        extension = BasicConstraints(ca=False)
        assert extension.value == b"\x30\x00"


class TestKeyUsage:
    def test_cert_sign_flags(self):
        extension = KeyUsage(key_cert_sign=True, crl_sign=True)
        data = extension.value
        # BIT STRING with one content octet carrying bits 5 and 6.
        assert data[0] == 0x03
        assert data[-1] == 0x06

    def test_no_flags_produces_empty_bit_string(self):
        extension = KeyUsage()
        assert extension.value.endswith(b"\x00")

    def test_digital_signature_only(self):
        extension = KeyUsage(digital_signature=True)
        assert extension.value[-1] == 0x80


class TestSubjectAlternativeName:
    def test_contains_each_dns_name(self):
        extension = SubjectAlternativeName(["example.org", "www.example.org"])
        assert b"example.org" in extension.value
        assert b"www.example.org" in extension.value

    def test_size_grows_linearly_with_names(self):
        few = SubjectAlternativeName(["example.org"]).encoded_size()
        many = SubjectAlternativeName([f"host{i}.example.org" for i in range(50)]).encoded_size()
        assert many > few + 40 * 15  # each extra SAN is roughly name length + 2 bytes

    def test_empty_san_list_allowed(self):
        assert SubjectAlternativeName([]).encoded_size() > 0

    def test_uses_dns_general_name_tag(self):
        extension = SubjectAlternativeName(["example.org"])
        _, names, _ = decode_tlv(extension.value)
        tag, content, _ = decode_tlv(names)
        assert tag == 0x82  # context [2] dNSName
        assert content == b"example.org"


class TestKeyIdentifiers:
    def test_subject_key_identifier_wraps_octet_string(self):
        extension = SubjectKeyIdentifier(b"\x01" * 20)
        tag, content, _ = decode_tlv(extension.value)
        assert tag == 0x04 and content == b"\x01" * 20

    def test_authority_key_identifier_uses_context_tag(self):
        extension = AuthorityKeyIdentifier(b"\x02" * 20)
        _, content, _ = decode_tlv(extension.value)
        tag, inner, _ = decode_tlv(content)
        assert tag == 0x80 and inner == b"\x02" * 20


class TestUrlBearingExtensions:
    def test_aia_contains_urls(self):
        extension = AuthorityInformationAccess(
            ocsp_url="http://ocsp.example", ca_issuers_url="http://ca.example/ca.der"
        )
        assert b"http://ocsp.example" in extension.value
        assert b"http://ca.example/ca.der" in extension.value

    def test_crl_distribution_points_contains_url(self):
        extension = CrlDistributionPoints(["http://crl.example/x.crl"])
        assert b"http://crl.example/x.crl" in extension.value

    def test_certificate_policies_with_cps(self):
        extension = CertificatePolicies(cps_url="https://cps.example")
        assert b"https://cps.example" in extension.value

    def test_certificate_policies_default_dv(self):
        extension = CertificatePolicies()
        assert extension.encoded_size() > 10


class TestSctList:
    def test_size_scales_with_count(self):
        two = SignedCertificateTimestamps(count=2).encoded_size()
        three = SignedCertificateTimestamps(count=3).encoded_size()
        assert 100 < three - two < 140  # one SCT is ~120 bytes

    def test_deterministic_for_same_seed(self):
        a = SignedCertificateTimestamps(count=2, log_seed="x")
        b = SignedCertificateTimestamps(count=2, log_seed="x")
        assert a.value == b.value


class TestExtensionFraming:
    def test_extension_encode_includes_critical_flag_only_when_set(self):
        critical = BasicConstraints(ca=True).encode()
        non_critical = ExtendedKeyUsage().encode()
        assert b"\x01\x01\xff" in critical
        assert b"\x01\x01\xff" not in non_critical

    def test_encode_extensions_wraps_in_explicit_3(self):
        block = encode_extensions([BasicConstraints(ca=False), ExtendedKeyUsage()])
        assert block[0] == 0xA3

    def test_extension_sizes_sum_close_to_block_size(self):
        extensions = [BasicConstraints(ca=False), ExtendedKeyUsage(), SubjectKeyIdentifier(b"k" * 20)]
        block = encode_extensions(extensions)
        total = sum(e.encoded_size() for e in extensions)
        assert total < len(block) <= total + 10  # framing adds a handful of bytes
