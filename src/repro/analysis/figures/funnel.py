"""The §3.1/§3.2 measurement funnel.

From the full name list down to resolved names, names with A records, names
with certificates and QUIC-reachable services — the sanity numbers that frame
every other result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...scanners.https_scanner import ScanFunnel
from ..dataset import Column, Table


@dataclass(frozen=True)
class MeasurementFunnel:
    """The funnel counts plus derived shares."""

    funnel: ScanFunnel
    quic_services: int

    @property
    def resolved_share(self) -> float:
        if self.funnel.names_total == 0:
            return 0.0
        return self.funnel.dns_noerror / self.funnel.names_total

    @property
    def a_record_share(self) -> float:
        if self.funnel.names_total == 0:
            return 0.0
        return self.funnel.with_a_record / self.funnel.names_total

    @property
    def certificate_share(self) -> float:
        if self.funnel.names_total == 0:
            return 0.0
        return self.funnel.names_with_certificates / self.funnel.names_total

    @property
    def quic_share(self) -> float:
        if self.funnel.names_total == 0:
            return 0.0
        return self.quic_services / self.funnel.names_total

    def as_table(self) -> Table:
        table = Table([Column("step"), Column("count"), Column("share", ".1%")])
        total = self.funnel.names_total
        table.add_row("names scanned", total, 1.0)
        table.add_row("resolved (NOERROR)", self.funnel.dns_noerror, self.resolved_share)
        table.add_row("SERVFAIL", self.funnel.dns_servfail, self.funnel.dns_servfail / total if total else 0)
        table.add_row("NXDOMAIN", self.funnel.dns_nxdomain, self.funnel.dns_nxdomain / total if total else 0)
        table.add_row("with A record", self.funnel.with_a_record, self.a_record_share)
        table.add_row("with certificate", self.funnel.names_with_certificates, self.certificate_share)
        table.add_row("QUIC services", self.quic_services, self.quic_share)
        return table

    def render_text(self) -> str:
        return self.as_table().render_text("Measurement funnel (§3.1/§3.2)")


def compute(funnel: ScanFunnel, quic_services: int) -> MeasurementFunnel:
    return MeasurementFunnel(funnel=funnel, quic_services=quic_services)
