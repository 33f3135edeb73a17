"""Unit tests for certificate chains."""

import pytest

from repro.x509 import CertificateChain
from repro.x509.chain import chain_fingerprint


class TestChainBasics:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            CertificateChain(())

    def test_depth_and_iteration(self, lets_encrypt_long_chain):
        assert lets_encrypt_long_chain.depth == 3
        assert len(list(lets_encrypt_long_chain)) == 3

    def test_leaf_and_intermediates(self, lets_encrypt_long_chain):
        assert lets_encrypt_long_chain.leaf.subject_common_name == "fixture-le.example"

    def test_total_size_is_sum_of_certificates(self, cloudflare_chain):
        assert cloudflare_chain.total_size == sum(c.size for c in cloudflare_chain)

    def test_sizes_by_depth(self, lets_encrypt_long_chain):
        sizes = lets_encrypt_long_chain.sizes_by_depth()
        assert len(sizes) == 3
        assert sizes[0] == lets_encrypt_long_chain.leaf_size


class TestChainHygiene:
    def test_issued_chains_are_correctly_ordered(self, lets_encrypt_long_chain, cloudflare_chain):
        assert lets_encrypt_long_chain.is_correctly_ordered()
        assert cloudflare_chain.is_correctly_ordered()

    def test_shuffled_chain_detected_as_misordered(self, lets_encrypt_long_chain):
        certificates = lets_encrypt_long_chain.certificates
        shuffled = CertificateChain((certificates[1], certificates[0], certificates[2]))
        assert not shuffled.is_correctly_ordered()

    def test_includes_trust_anchor_detection(self, hierarchy):
        with_root = hierarchy.profiles["Google 1C3"].issue("anchor.example")
        without_root = hierarchy.profiles["Cloudflare ECC CA-3"].issue("anchor2.example")
        assert with_root.includes_trust_anchor()
        assert not without_root.includes_trust_anchor()

    def test_cross_signed_detection(self, hierarchy):
        cross = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("c.example")
        plain = hierarchy.profiles["Let's Encrypt R3 (short)"].issue("p.example")
        assert cross.includes_cross_signed()
        assert not plain.includes_cross_signed()


class TestParentChainGrouping:
    def test_parent_chain_key_distinguishes_cross_signed_root(self, hierarchy):
        cross = hierarchy.profiles["Let's Encrypt R3 + cross-signed X1"].issue("a.example")
        with_root = hierarchy.profiles["Let's Encrypt R3 + root X1"].issue("b.example")
        assert cross.parent_chain_key() != with_root.parent_chain_key()
        assert any("cross-signed" in label for label in cross.parent_chain_key())

    def test_parent_chain_key_for_depth_two(self, cloudflare_chain):
        assert cloudflare_chain.parent_chain_key() == ("Cloudflare Inc ECC CA-3",)

    def test_chain_fingerprint_distinguishes_chains(self, cloudflare_chain, lets_encrypt_long_chain):
        assert chain_fingerprint(cloudflare_chain) != chain_fingerprint(lets_encrypt_long_chain)
        assert chain_fingerprint(cloudflare_chain) == chain_fingerprint(cloudflare_chain)
