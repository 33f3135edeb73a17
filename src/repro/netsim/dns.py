"""Simulated DNS resolution with the failure modes the paper reports.

§3.1 of the paper: out of 1M Tranco names, 976k could be queried successfully,
13k returned SERVFAIL, 9k NXDOMAIN, the rest timed out or were REFUSED; 866k
names returned an A record.  The resolver here reproduces that funnel when
driven by a :class:`repro.webpki.population.InternetPopulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from .address import IPv4Address


class DnsRcode(Enum):
    """Resolution outcomes, matching the paper's terminology."""

    NOERROR = "NOERROR"
    SERVFAIL = "SERVFAIL"
    NXDOMAIN = "NXDOMAIN"
    REFUSED = "REFUSED"
    TIMEOUT = "TIMEOUT"  # not a real rcode; models the 10 s client timeout

    @property
    def is_success(self) -> bool:
        return self is DnsRcode.NOERROR


@dataclass(frozen=True)
class DnsResult:
    """Outcome of resolving one name."""

    name: str
    rcode: DnsRcode
    address: Optional[IPv4Address] = None

    @property
    def has_address(self) -> bool:
        return self.rcode.is_success and self.address is not None


class SimulatedResolver:
    """A stub resolver backed by a static zone (name → result)."""

    def __init__(self, zone: Optional[Dict[str, DnsResult]] = None) -> None:
        self._zone: Dict[str, DnsResult] = dict(zone or {})
        self.queries_issued = 0

    def add_record(self, name: str, address: IPv4Address) -> None:
        self._zone[name.lower()] = DnsResult(name.lower(), DnsRcode.NOERROR, address)

    def add_failure(self, name: str, rcode: DnsRcode) -> None:
        if rcode is DnsRcode.NOERROR:
            raise ValueError("use add_record for successful resolutions")
        self._zone[name.lower()] = DnsResult(name.lower(), rcode, None)

    def add_no_address(self, name: str) -> None:
        """Name resolves (NOERROR) but has no A record (e.g. only MX/TXT)."""
        self._zone[name.lower()] = DnsResult(name.lower(), DnsRcode.NOERROR, None)

    def resolve(self, name: str) -> DnsResult:
        """Resolve a name; unknown names behave as NXDOMAIN."""
        self.queries_issued += 1
        result = self._zone.get(name.lower())
        if result is None:
            return DnsResult(name.lower(), DnsRcode.NXDOMAIN, None)
        return result
