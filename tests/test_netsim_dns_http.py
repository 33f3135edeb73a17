"""Unit tests for the simulated DNS resolver and HTTP origins."""

import pytest

from repro.netsim import DnsRcode, HttpOrigin, IPv4Address, RedirectKind, SimulatedResolver
from repro.netsim.http import target_domain


class TestResolver:
    def test_resolution_success(self):
        resolver = SimulatedResolver()
        resolver.add_record("example.org", IPv4Address.parse("93.184.216.34"))
        result = resolver.resolve("EXAMPLE.ORG")
        assert result.rcode is DnsRcode.NOERROR
        assert result.has_address
        assert str(result.address) == "93.184.216.34"

    def test_unknown_name_is_nxdomain(self):
        resolver = SimulatedResolver()
        assert resolver.resolve("missing.example").rcode is DnsRcode.NXDOMAIN

    def test_failures(self):
        resolver = SimulatedResolver()
        resolver.add_failure("broken.example", DnsRcode.SERVFAIL)
        resolver.add_failure("slow.example", DnsRcode.TIMEOUT)
        assert resolver.resolve("broken.example").rcode is DnsRcode.SERVFAIL
        assert not resolver.resolve("slow.example").has_address

    def test_no_a_record(self):
        resolver = SimulatedResolver()
        resolver.add_no_address("mx-only.example")
        result = resolver.resolve("mx-only.example")
        assert result.rcode is DnsRcode.NOERROR
        assert not result.has_address

    def test_add_failure_rejects_noerror(self):
        resolver = SimulatedResolver()
        with pytest.raises(ValueError):
            resolver.add_failure("x.example", DnsRcode.NOERROR)

    def test_query_counter(self):
        resolver = SimulatedResolver()
        resolver.resolve("a.example")
        resolver.resolve("b.example")
        assert resolver.queries_issued == 2


class TestHttpOrigin:
    def test_https_serves_chain(self, cloudflare_chain):
        origin = HttpOrigin(domain="site.example", https_chain=cloudflare_chain)
        response = origin.request(443)
        assert response is not None
        assert response.tls_chain is cloudflare_chain

    def test_port80_redirects_to_https_by_default(self, cloudflare_chain):
        origin = HttpOrigin(domain="site.example", https_chain=cloudflare_chain)
        response = origin.request(80)
        assert response.is_redirect
        assert response.redirect_target == "https://site.example/"

    def test_explicit_redirect_to_other_domain(self, cloudflare_chain):
        origin = HttpOrigin(
            domain="old.example",
            https_chain=cloudflare_chain,
            redirect_kind=RedirectKind.HTTP_301,
            redirect_target="https://new.example/",
        )
        assert origin.request(443).redirect_target == "https://new.example/"

    def test_meta_refresh_redirect(self):
        origin = HttpOrigin(
            domain="meta.example",
            redirect_kind=RedirectKind.HTML_META_REFRESH,
            redirect_target="https://target.example/",
        )
        response = origin.request(80)
        assert not response.is_redirect
        assert response.redirect_target == "https://target.example/"

    def test_closed_ports_return_none(self):
        origin = HttpOrigin(domain="closed.example", port80_open=False, port443_open=False)
        assert origin.request(80) is None
        assert origin.request(443) is None

    def test_http_only_site(self):
        origin = HttpOrigin(domain="plain.example")
        assert origin.request(443) is None
        assert origin.request(80).status == 200

    def test_unknown_port_rejected(self):
        with pytest.raises(ValueError):
            HttpOrigin(domain="x.example").request(8080)


class TestTargetDomain:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("https://www.example.org/path", "www.example.org"),
            ("http://example.org", "example.org"),
            ("bare.example", "bare.example"),
            ("HTTPS://UPPER.example/", "upper.example"),
        ],
    )
    def test_extraction(self, url, expected):
        assert target_domain(url) == expected
