"""Simulated HTTP/HTTPS origins with redirects and certificate delivery.

The HTTPS certificate collection step of the paper (§3.1) connects to ports 80
and 443, follows HTTP 3xx redirects and HTML ``<meta http-equiv>`` refreshes,
and records the TLS certificate chain of every secure hop.  The origin model
here supports exactly those behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..x509.chain import CertificateChain


class RedirectKind(Enum):
    """How an origin points clients elsewhere."""

    NONE = "none"
    HTTP_301 = "301"
    HTTP_302 = "302"
    HTML_META_REFRESH = "meta-refresh"


@dataclass(frozen=True)
class HttpResponse:
    """A minimal HTTP response as seen by the certificate scanner."""

    status: int
    location: Optional[str] = None
    body_contains_meta_refresh: Optional[str] = None
    tls_chain: Optional[CertificateChain] = None
    port: int = 443

    @property
    def is_redirect(self) -> bool:
        return 300 <= self.status < 400 and self.location is not None

    @property
    def redirect_target(self) -> Optional[str]:
        if self.is_redirect:
            return self.location
        return self.body_contains_meta_refresh


@dataclass
class HttpOrigin:
    """One web origin: plaintext port 80 behaviour plus TLS port 443 behaviour."""

    domain: str
    https_chain: Optional[CertificateChain] = None
    port80_open: bool = True
    port443_open: bool = True
    redirect_kind: RedirectKind = RedirectKind.NONE
    redirect_target: Optional[str] = None

    def request(self, port: int) -> Optional[HttpResponse]:
        """Issue a request to this origin on ``port``; None models no listener."""
        if port == 80:
            if not self.port80_open:
                return None
            if self.redirect_kind in (RedirectKind.HTTP_301, RedirectKind.HTTP_302) and self.redirect_target:
                status = 301 if self.redirect_kind is RedirectKind.HTTP_301 else 302
                return HttpResponse(status=status, location=self.redirect_target, port=80)
            if self.redirect_kind is RedirectKind.HTML_META_REFRESH and self.redirect_target:
                return HttpResponse(status=200, body_contains_meta_refresh=self.redirect_target, port=80)
            # Default port-80 behaviour of HTTPS sites: redirect to https.
            if self.https_chain is not None:
                return HttpResponse(status=301, location=f"https://{self.domain}/", port=80)
            return HttpResponse(status=200, port=80)
        if port == 443:
            if not self.port443_open or self.https_chain is None:
                return None
            if (
                self.redirect_kind in (RedirectKind.HTTP_301, RedirectKind.HTTP_302)
                and self.redirect_target
            ):
                status = 301 if self.redirect_kind is RedirectKind.HTTP_301 else 302
                return HttpResponse(
                    status=status,
                    location=self.redirect_target,
                    tls_chain=self.https_chain,
                    port=443,
                )
            return HttpResponse(status=200, tls_chain=self.https_chain, port=443)
        raise ValueError(f"origin only serves ports 80 and 443, not {port}")


def target_domain(url_or_domain: str) -> str:
    """Extract the domain from a redirect target (absolute URL or bare name)."""
    text = url_or_domain.strip()
    for prefix in ("https://", "http://"):
        if text.lower().startswith(prefix):
            text = text[len(prefix):]
            break
    return text.split("/", 1)[0].lower()
