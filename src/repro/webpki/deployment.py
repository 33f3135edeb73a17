"""Per-domain deployment description.

A :class:`DomainDeployment` is the ground truth the simulated Internet holds
for one domain: how DNS answers, which address serves it, whether it speaks
HTTPS and/or QUIC, the certificate chain it delivers, and how its QUIC stack
behaves.  The scanners never look at this object directly for their results —
they measure through the DNS/HTTP/QUIC layers — but tests do, to verify that
measurements recover the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..netsim.address import IPv4Address
from ..netsim.dns import DnsRcode
from ..quic.profiles import ServerBehaviorProfile
from ..x509.chain import CertificateChain


class ServiceCategory(Enum):
    """Coarse category a domain ends up in after the scans."""

    QUIC = "quic"                     # reachable via HTTPS and QUIC
    HTTPS_ONLY = "https-only"         # TLS certificate, no QUIC service
    INSECURE = "insecure"             # resolves, but no TLS on port 443
    UNRESOLVED = "unresolved"         # DNS failure or no A record


@dataclass(frozen=True)
class DomainDeployment:
    """Everything that defines one domain's behaviour in the simulation."""

    domain: str
    rank: int
    category: ServiceCategory
    dns_rcode: DnsRcode
    address: Optional[IPv4Address] = None
    https_chain: Optional[CertificateChain] = None
    quic_chain: Optional[CertificateChain] = None
    server_behavior: Optional[ServerBehaviorProfile] = None
    provider: Optional[str] = None
    archetype: Optional[str] = None
    ca_profile: Optional[str] = None
    #: Extra bytes added by load-balancer encapsulation on the path to the
    #: QUIC backend (0 when the service is not tunnelled).
    encapsulation_overhead: int = 0
    #: Domain this one redirects to (HTTP 3xx / meta refresh), if any.
    redirect_to: Optional[str] = None

    # -- convenience -----------------------------------------------------------

    @property
    def resolves(self) -> bool:
        return self.dns_rcode is DnsRcode.NOERROR and self.address is not None

    @property
    def supports_quic(self) -> bool:
        return self.category is ServiceCategory.QUIC and self.quic_chain is not None

    @property
    def delivered_chain(self) -> Optional[CertificateChain]:
        """The chain a client sees (QUIC chain when present, else HTTPS)."""
        return self.quic_chain or self.https_chain
