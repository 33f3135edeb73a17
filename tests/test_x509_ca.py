"""Unit tests for the CA hierarchy and issuance."""

from repro.x509 import build_hierarchy, issue_leaf
from repro.x509.ca import default_hierarchy
from repro.x509.keys import KeyAlgorithm


class TestHierarchyConstruction:
    def test_contains_the_major_cas(self, hierarchy):
        for root in ("ISRG Root X1", "ISRG Root X2", "GTS Root R1", "DigiCert Global Root CA"):
            assert root in hierarchy.roots
        for intermediate in ("R3", "E1", "GTS CA 1C3", "Cloudflare Inc ECC CA-3"):
            assert intermediate in hierarchy.intermediates

    def test_roots_are_self_signed(self, hierarchy):
        for ca in hierarchy.roots.values():
            assert ca.certificate.is_self_signed
            assert ca.certificate.is_ca

    def test_intermediates_are_not_self_signed(self, hierarchy):
        for ca in hierarchy.intermediates.values():
            assert not ca.certificate.is_self_signed

    def test_profiles_present_for_figure7_rows(self, hierarchy):
        for label in (
            "Cloudflare ECC CA-3",
            "Let's Encrypt R3 + cross-signed X1",
            "Let's Encrypt R3 + root X1",
            "Google 1C3",
            "Sectigo RSA DV / USERTRUST",
            "Amazon RSA 2048 M02 (long)",
        ):
            assert label in hierarchy.profiles

    def test_default_hierarchy_is_cached(self):
        assert default_hierarchy() is default_hierarchy()

    def test_build_hierarchy_is_deterministic(self):
        a, b = build_hierarchy(), build_hierarchy()
        for label in a.profiles:
            assert a.profiles[label].parent_chain_size == b.profiles[label].parent_chain_size


class TestIssuance:
    def test_issue_produces_ordered_chain(self, hierarchy):
        chain = hierarchy.profiles["Google 1C3"].issue("issue-test.example")
        assert chain.is_correctly_ordered()
        assert chain.leaf.subject_common_name == "issue-test.example"

    def test_leaf_key_override(self, hierarchy):
        profile = hierarchy.profiles["Let's Encrypt R3 (short)"]
        rsa = profile.issue("rsa.example", key_algorithm=KeyAlgorithm.RSA_2048)
        ecdsa = profile.issue("ec.example", key_algorithm=KeyAlgorithm.ECDSA_P256)
        assert rsa.leaf.key_algorithm is KeyAlgorithm.RSA_2048
        assert ecdsa.leaf.key_algorithm is KeyAlgorithm.ECDSA_P256
        assert rsa.leaf_size > ecdsa.leaf_size

    def test_default_san_names(self, hierarchy):
        chain = hierarchy.profiles["Cloudflare ECC CA-3"].issue("sans.example")
        assert "sans.example" in chain.leaf.san_names
        assert "www.sans.example" in chain.leaf.san_names

    def test_custom_san_names_grow_leaf(self, hierarchy):
        profile = hierarchy.profiles["Cloudflare ECC CA-3"]
        small = profile.issue("small.example", san_names=["small.example"])
        large = profile.issue(
            "large.example", san_names=[f"alt{i}.large.example" for i in range(100)]
        )
        assert large.leaf_size > small.leaf_size + 1000

    def test_issue_leaf_directly(self, hierarchy):
        issuer = hierarchy.intermediates["R3"]
        leaf = issue_leaf(issuer, "direct.example")
        assert leaf.issuer.common_name == "R3"
        assert not leaf.is_ca

    def test_chain_size_targets_match_paper_shape(self, hierarchy):
        """Cloudflare-style chains are small; RSA long chains are near/above 4 kB."""
        cloudflare = hierarchy.profiles["Cloudflare ECC CA-3"].issue("cf.example")
        le_long = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("le.example")
        amazon = hierarchy.profiles["Amazon RSA 2048 M02 (long)"].issue("am.example")
        assert cloudflare.total_size < 2500
        assert 3300 <= le_long.total_size <= 4700
        assert amazon.total_size > 4000

    def test_issuance_is_deterministic_per_domain(self, hierarchy):
        profile = hierarchy.profiles["Cloudflare ECC CA-3"]
        assert (
            profile.issue("det.example").leaf.der
            == profile.issue("det.example").leaf.der
        )
