"""Unit tests for the Tranco-like list generator."""

import hashlib

import pytest

from repro.webpki import generate_tranco_list


class TestTrancoGeneration:
    def test_size_and_uniqueness(self):
        tranco = generate_tranco_list(5000, seed=1)
        assert len(tranco) == 5000
        assert len(set(tranco.domains)) == 5000

    def test_deterministic_for_seed(self):
        assert generate_tranco_list(500, seed=7).domains == generate_tranco_list(500, seed=7).domains

    def test_different_seeds_differ(self):
        assert generate_tranco_list(500, seed=1).domains != generate_tranco_list(500, seed=2).domains

    def test_names_look_like_domains(self):
        tranco = generate_tranco_list(300, seed=3)
        for name in tranco:
            assert "." in name
            label, _, tld = name.rpartition(".")
            assert label and tld
            assert name == name.lower()

    def test_rank_accessors(self):
        tranco = generate_tranco_list(100, seed=4)
        domain = tranco.domain_at(10)
        assert tranco.rank_of(domain) == 10
        assert tranco.top(5) == tranco.domains[:5]

    def test_rank_groups_partition_the_list(self):
        tranco = generate_tranco_list(1000, seed=5)
        groups = tranco.rank_groups(group_size=300)
        assert [bounds for bounds, _ in groups] == [(1, 300), (301, 600), (601, 900), (901, 1000)]
        assert sum(len(names) for _, names in groups) == 1000

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
