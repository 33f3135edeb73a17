"""Unit tests for the Tranco-like list generator."""

import hashlib

import pytest

from repro.webpki import generate_tranco_list


class TestTrancoGeneration:
    def test_size_and_uniqueness(self):
        tranco = generate_tranco_list(5000, seed=1)
        assert len(tranco.domains) == 5000
        assert len(set(tranco.domains)) == 5000

    def test_deterministic_for_seed(self):
        assert generate_tranco_list(500, seed=7).domains == generate_tranco_list(500, seed=7).domains

    def test_different_seeds_differ(self):
        assert generate_tranco_list(500, seed=1).domains != generate_tranco_list(500, seed=2).domains

    def test_names_look_like_domains(self):
        tranco = generate_tranco_list(300, seed=3)
        for name in tranco.domains:
            assert "." in name
            label, _, tld = name.rpartition(".")
            assert label and tld
            assert name == name.lower()

    def test_positional_and_keyword_seed_share_one_list(self):
        assert generate_tranco_list(400, 9) is generate_tranco_list(400, seed=9)

    def test_shorter_list_is_a_prefix_of_a_longer_one(self):
        """Ranks are stable when the list grows: rank r names the same domain."""
        longer = generate_tranco_list(3000, seed=5).domains
        assert generate_tranco_list(1200, seed=5).domains == longer[:1200]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_tranco_list(0)


#: SHA-256 of ``"\n".join(domains)`` for ``(size, seed)``.  The ranked list
#: feeds every domain name, rank and SAN, so any change to its draws moves
#: every figure; these digests pin the exact list.
PINNED_LIST_DIGESTS = {
    (50_000, 2022): "5d016fec337608b9bcfc0cb0d543acf08253647165b90cd65727963eb56f5339",
    (20_000, 7): "332fb822fc750c3903ea54bd56aea653e817711f6de1e2acda0583d28e0b7d23",
}


@pytest.mark.parametrize("size, seed", sorted(PINNED_LIST_DIGESTS))
def test_ranked_list_is_pinned(size, seed):
    domains = generate_tranco_list(size, seed=seed).domains
    digest = hashlib.sha256("\n".join(domains).encode()).hexdigest()
    assert digest == PINNED_LIST_DIGESTS[(size, seed)]
