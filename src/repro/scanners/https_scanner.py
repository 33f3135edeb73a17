"""HTTPS certificate collection (paper §3.1, toolchain steps 1–2).

For every name in the input list the scanner resolves the name, attempts HTTP
connections on ports 80 and 443, follows HTTP(S) redirects and HTML meta
refreshes, and records the TLS certificate chain of every secure hop along the
redirect path.  The output contains both the per-name scan results and the
aggregate funnel the paper reports (resolved / A records / certificates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netsim.dns import DnsRcode, SimulatedResolver
from ..netsim.http import HttpOrigin, target_domain
from ..x509.chain import CertificateChain, chain_fingerprint


@dataclass(frozen=True)
class CertificateRecord:
    """A certificate chain collected for one (possibly redirected-to) name."""

    requested_domain: str
    served_domain: str
    rank: int
    chain: CertificateChain
    via_redirect: bool = False

    @property
    def fingerprint(self) -> str:
        return chain_fingerprint(self.chain)


@dataclass
class ScanFunnel:
    """Aggregate counters matching the funnel in §3.1."""

    names_total: int = 0
    dns_noerror: int = 0
    dns_servfail: int = 0
    dns_nxdomain: int = 0
    dns_timeout: int = 0
    dns_refused: int = 0
    with_a_record: int = 0
    port_80_open: int = 0
    port_443_open: int = 0
    names_with_certificates: int = 0
    unique_certificate_chains: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class HttpsScanResult:
    """Everything the HTTPS scan produced."""

    funnel: ScanFunnel
    records: Tuple[CertificateRecord, ...]

    def chains_by_requested_domain(self) -> Dict[str, CertificateChain]:
        """First (non-redirect preferred) chain per requested name."""
        chains: Dict[str, CertificateChain] = {}
        for record in self.records:
            if record.requested_domain not in chains or not record.via_redirect:
                chains[record.requested_domain] = record.chain
        return chains


class HttpsScanner:
    """Implements the certificate collection pipeline over the simulated net."""

    def __init__(
        self,
        resolver: SimulatedResolver,
        origins: Dict[str, HttpOrigin],
        max_redirects: int = 5,
    ) -> None:
        self._resolver = resolver
        self._origins = {name.lower(): origin for name, origin in origins.items()}
        self._max_redirects = max_redirects

    # -- public API ------------------------------------------------------------

    def scan(self, names: Sequence[Tuple[str, int]]) -> HttpsScanResult:
        """Scan ``names`` (pairs of domain and rank) and collect certificates."""
        funnel = ScanFunnel(names_total=len(names))
        records: List[CertificateRecord] = []
        fingerprints: Set[str] = set()

        for domain, rank in names:
            result = self._resolver.resolve(domain)
            self._count_dns(funnel, result.rcode)
            if not result.has_address:
                continue
            funnel.with_a_record += 1
            collected = self._scan_one(domain, rank)
            if collected:
                funnel.names_with_certificates += 1
            for record in collected:
                records.append(record)
                fingerprints.add(record.fingerprint)
            if self._origin_for(domain) is not None:
                origin = self._origin_for(domain)
                if origin.request(80) is not None:
                    funnel.port_80_open += 1
                if origin.request(443) is not None:
                    funnel.port_443_open += 1

        funnel.unique_certificate_chains = len(fingerprints)
        return HttpsScanResult(funnel=funnel, records=tuple(records))

    # -- internals --------------------------------------------------------------

    def _origin_for(self, domain: str) -> Optional[HttpOrigin]:
        return self._origins.get(domain.lower())

    def _count_dns(self, funnel: ScanFunnel, rcode: DnsRcode) -> None:
        if rcode is DnsRcode.NOERROR:
            funnel.dns_noerror += 1
        elif rcode is DnsRcode.SERVFAIL:
            funnel.dns_servfail += 1
        elif rcode is DnsRcode.NXDOMAIN:
            funnel.dns_nxdomain += 1
        elif rcode is DnsRcode.TIMEOUT:
            funnel.dns_timeout += 1
        elif rcode is DnsRcode.REFUSED:
            funnel.dns_refused += 1

    def _scan_one(self, domain: str, rank: int) -> List[CertificateRecord]:
        """Fetch the certificate for one name, following redirects."""
        records: List[CertificateRecord] = []
        visited: Set[str] = set()
        current = domain.lower()
        via_redirect = False

        for _ in range(self._max_redirects + 1):
            if current in visited:
                break
            visited.add(current)
            origin = self._origin_for(current)
            if origin is None:
                break

            https_response = origin.request(443)
            if https_response is not None and https_response.tls_chain is not None:
                records.append(
                    CertificateRecord(
                        requested_domain=domain.lower(),
                        served_domain=current,
                        rank=rank,
                        chain=https_response.tls_chain,
                        via_redirect=via_redirect,
                    )
                )

            # Determine where to go next: HTTPS redirect first, then port 80.
            next_target: Optional[str] = None
            if https_response is not None and https_response.redirect_target:
                next_target = target_domain(https_response.redirect_target)
            else:
                http_response = origin.request(80)
                if http_response is not None and http_response.redirect_target:
                    candidate = target_domain(http_response.redirect_target)
                    if candidate != current:
                        next_target = candidate
            if not next_target or next_target == current:
                break
            current = next_target
            via_redirect = True
        return records
