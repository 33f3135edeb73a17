"""Unit tests for the HTTPS certificate scanner."""

import pytest

from repro.netsim import HttpOrigin, IPv4Address, RedirectKind, SimulatedResolver
from repro.netsim.dns import DnsRcode
from repro.scanners import HttpsScanner
from repro.webpki.deployment import ServiceCategory


class TestHttpsScannerUnit:
    def _scanner(self, cloudflare_chain, lets_encrypt_short_chain):
        resolver = SimulatedResolver()
        resolver.add_record("secure.example", IPv4Address.parse("10.0.0.1"))
        resolver.add_record("redirecting.example", IPv4Address.parse("10.0.0.2"))
        resolver.add_record("target.example", IPv4Address.parse("10.0.0.3"))
        resolver.add_record("plain.example", IPv4Address.parse("10.0.0.4"))
        resolver.add_failure("broken.example", DnsRcode.SERVFAIL)
        origins = {
            "secure.example": HttpOrigin("secure.example", https_chain=cloudflare_chain),
            "redirecting.example": HttpOrigin(
                "redirecting.example",
                https_chain=cloudflare_chain,
                redirect_kind=RedirectKind.HTTP_301,
                redirect_target="https://target.example/",
            ),
            "target.example": HttpOrigin("target.example", https_chain=lets_encrypt_short_chain),
            "plain.example": HttpOrigin("plain.example"),
        }
        return HttpsScanner(resolver, origins)

    def test_collects_certificates_for_secure_names(self, cloudflare_chain, lets_encrypt_short_chain):
        scanner = self._scanner(cloudflare_chain, lets_encrypt_short_chain)
        result = scanner.scan([("secure.example", 1), ("plain.example", 2), ("broken.example", 3)])
        assert result.funnel.names_total == 3
        assert result.funnel.dns_servfail == 1
        assert result.funnel.names_with_certificates == 1
        assert len(result.records_for("secure.example")) == 1

    def test_follows_redirects_and_collects_both_chains(self, cloudflare_chain, lets_encrypt_short_chain):
        scanner = self._scanner(cloudflare_chain, lets_encrypt_short_chain)
        result = scanner.scan([("redirecting.example", 1)])
        records = result.records_for("redirecting.example")
        served = {record.served_domain for record in records}
        assert served == {"redirecting.example", "target.example"}
        assert any(record.via_redirect for record in records)
        assert result.funnel.unique_certificate_chains == 2

    def test_chains_by_requested_domain_prefers_direct_hit(
        self, cloudflare_chain, lets_encrypt_short_chain
    ):
        scanner = self._scanner(cloudflare_chain, lets_encrypt_short_chain)
        result = scanner.scan([("redirecting.example", 1)])
        chains = result.chains_by_requested_domain()
        assert chains["redirecting.example"].leaf.subject_common_name == "fixture-cf.example"

    def test_redirect_loops_terminate(self, cloudflare_chain, lets_encrypt_short_chain):
        resolver = SimulatedResolver()
        resolver.add_record("a.example", IPv4Address.parse("10.0.0.1"))
        resolver.add_record("b.example", IPv4Address.parse("10.0.0.2"))
        origins = {
            "a.example": HttpOrigin(
                "a.example", https_chain=cloudflare_chain,
                redirect_kind=RedirectKind.HTTP_302, redirect_target="https://b.example/",
            ),
            "b.example": HttpOrigin(
                "b.example", https_chain=lets_encrypt_short_chain,
                redirect_kind=RedirectKind.HTTP_302, redirect_target="https://a.example/",
            ),
        }
        result = HttpsScanner(resolver, origins).scan([("a.example", 1)])
        assert len(result.records_for("a.example")) == 2  # visited each once


class TestHttpsScannerOnPopulation:
    def test_funnel_matches_paper_shape(self, campaign_results):
        funnel = campaign_results.shard.funnel
        total = funnel.names_total
        assert funnel.dns_noerror / total == pytest.approx(0.976, abs=0.03)
        assert funnel.with_a_record / total == pytest.approx(0.866, abs=0.05)
        assert funnel.names_with_certificates / total == pytest.approx(0.80, abs=0.06)

    def test_certificates_collected_for_all_tls_deployments(self, campaign_results):
        population = campaign_results.population
        with_cert = {
            d.domain
            for d in population.deployments
            if d.category.has_certificate
        }
        collected = {record.requested_domain for record in campaign_results.shard.https_records}
        assert with_cert <= collected
