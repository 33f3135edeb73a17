"""Unit and calibration tests for the population generator."""

import random

import pytest

from repro.netsim import IPv4Prefix
from repro.netsim.dns import DnsRcode
from repro.quic.profiles import MVFST_LIKE, MVFST_PATCHED
from repro.webpki import (
    HTTPS_ONLY_ARCHETYPES,
    PROVIDERS,
    QUIC_ARCHETYPES,
    PopulationConfig,
    ServiceCategory,
    generate_population,
    sample_san_count,
)
from repro.webpki.population import (
    META_HIGH_AMPLIFICATION_OCTETS,
    META_NO_SERVICE_OCTETS,
    build_meta_point_of_presence,
    build_network_for,
    build_origins_for,
    build_resolver_for,
    meta_domain_for_octet,
)
from repro.x509.ca import default_hierarchy


class TestArchetypes:
    def test_quic_weights_cover_figure7a_rows(self):
        weights = {a.name: a.weight for a in QUIC_ARCHETYPES}
        assert weights["cloudflare-ecdsa"] == pytest.approx(61.54)
        assert weights["lets-encrypt-long-rsa"] == pytest.approx(16.80)
        assert sum(weights.values()) == pytest.approx(100.0, abs=2.0)

    def test_https_only_weights_sum_to_about_100(self):
        assert sum(a.weight for a in HTTPS_ONLY_ARCHETYPES) == pytest.approx(100.0, abs=2.0)

    def test_archetype_ca_profiles_exist(self):
        hierarchy = default_hierarchy()
        for archetype in QUIC_ARCHETYPES + HTTPS_ONLY_ARCHETYPES:
            assert archetype.ca_profile in hierarchy.profiles
            assert archetype.provider in PROVIDERS

    def test_sample_san_count_has_heavy_tail(self):
        rng = random.Random(0)
        archetype = QUIC_ARCHETYPES[0]
        counts = [sample_san_count(rng, archetype) for _ in range(4000)]
        assert min(counts) >= 1
        assert max(counts) > 100  # cruise liners exist
        assert sorted(counts)[len(counts) // 2] <= 6  # but the median stays small


class TestPopulationConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=0)
        with pytest.raises(ValueError):
            PopulationConfig(servfail_fraction=0.9, no_a_record_fraction=0.2)
        with pytest.raises(ValueError):
            PopulationConfig(quic_fraction_of_resolved=0.6, https_only_fraction_of_resolved=0.6)


class TestGeneratedPopulation:
    def test_deterministic(self):
        a = generate_population(PopulationConfig(size=300, seed=9))
        b = generate_population(PopulationConfig(size=300, seed=9))
        assert [d.domain for d in a.deployments] == [d.domain for d in b.deployments]
        assert [d.category for d in a.deployments] == [d.category for d in b.deployments]

    def test_every_domain_has_a_deployment(self, small_population):
        assert len(small_population.deployments) == small_population.config.size

    def test_category_shares_match_paper_funnel(self, small_population):
        counts = small_population.category_counts()
        total = len(small_population.deployments)
        assert counts[ServiceCategory.QUIC] / total == pytest.approx(0.21, abs=0.04)
        assert counts[ServiceCategory.HTTPS_ONLY] / total == pytest.approx(0.59, abs=0.05)
        assert counts[ServiceCategory.UNRESOLVED] / total == pytest.approx(0.134, abs=0.04)

    def test_quic_services_have_chains_and_behavior(self, small_population):
        for deployment in small_population.quic_services():
            assert deployment.quic_chain is not None
            assert deployment.https_chain is not None
            assert deployment.server_behavior is not None
            assert deployment.resolves

    def test_https_only_services_have_no_quic(self, small_population):
        for deployment in small_population.by_category(ServiceCategory.HTTPS_ONLY):
            assert not deployment.supports_quic
            assert deployment.https_chain is not None

    def test_unresolved_deployments_have_failures(self, small_population):
        for deployment in small_population.by_category(ServiceCategory.UNRESOLVED):
            assert deployment.dns_rcode is not DnsRcode.NOERROR or deployment.address is None

    def test_most_quic_services_share_cert_with_https(self, small_population):
        quic = small_population.quic_services()
        same = sum(1 for d in quic if d.quic_chain is d.https_chain)
        assert same / len(quic) > 0.9

    def test_cloudflare_dominates_quic_services(self, small_population):
        quic = small_population.quic_services()
        cloudflare = sum(1 for d in quic if d.provider == "cloudflare")
        assert cloudflare / len(quic) == pytest.approx(0.615, abs=0.06)

    def test_top_ranked_services_more_often_tunnelled(self):
        population = generate_population(PopulationConfig(size=4000, seed=11))
        quic = population.quic_services()
        top_size = population.config.size // 100
        top = [d for d in quic if d.rank <= top_size]
        rest = [d for d in quic if d.rank > top_size]
        if top:
            top_share = sum(1 for d in top if d.encapsulation_overhead) / len(top)
            rest_share = sum(1 for d in rest if d.encapsulation_overhead) / len(rest)
            assert top_share > rest_share

    def test_build_resolver_and_network_cover_population(self, small_population):
        resolver = build_resolver_for(small_population.deployments)
        network = build_network_for(small_population.deployments)
        everywhere = IPv4Prefix.parse("0.0.0.0/0")
        assert len(network.hosts_in_prefix(everywhere)) == len(small_population.quic_services())
        quic_domain = small_population.quic_services()[0].domain
        assert resolver.resolve(quic_domain).has_address
        assert network.host_for_domain(quic_domain) is not None

    def test_build_origins_include_redirect_targets(self, small_population):
        origins = build_origins_for(small_population.deployments)
        redirecting = [d for d in small_population.deployments if d.redirect_to and d.https_chain is not None]
        assert redirecting, "expected some redirecting deployments"
        sample = redirecting[0]
        assert sample.domain in origins
        assert sample.redirect_to in origins


class TestMetaPointOfPresence:
    def test_no_service_octets_are_skipped(self):
        hosts = build_meta_point_of_presence(patched=False)
        octets = {host.address.host_octet for host in hosts}
        assert octets.isdisjoint(META_NO_SERVICE_OCTETS)

    def test_domains_map_to_expected_groups(self):
        for octet in sorted(META_HIGH_AMPLIFICATION_OCTETS)[:5]:
            assert meta_domain_for_octet(octet) in ("instagram.com", "whatsapp.net")

    def test_unpatched_pop_contains_both_profiles(self):
        hosts = build_meta_point_of_presence(patched=False)
        profiles = {host.profile.name for host in hosts}
        assert MVFST_LIKE.name in profiles
        assert MVFST_PATCHED.name in profiles

    def test_patched_pop_is_homogeneous(self):
        hosts = build_meta_point_of_presence(patched=True)
        assert {host.profile.name for host in hosts} == {MVFST_PATCHED.name}

    def test_chains_are_meta_sized(self):
        hosts = build_meta_point_of_presence(patched=False)
        sizes = [host.chain.total_size for host in hosts]
        assert min(sizes) > 3500  # large SAN-heavy chains drive the ≈5x flight
