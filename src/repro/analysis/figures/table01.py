"""Table 1: browser Initial sizes and TLS certificate-compression support.

Combines the static browser profiles with the measured compression-support
shares and mean compression rates from the compression scanner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ...core.limits import BROWSER_PROFILES, BrowserProfile
from ...tls.cert_compression import CertificateCompressionAlgorithm
from ..dataset import Column, Table


@dataclass(frozen=True)
class BrowserCompressionTable:
    """The reproduced Table 1."""

    browsers: Dict[str, BrowserProfile]
    support_shares: Dict[CertificateCompressionAlgorithm, float]
    mean_rates: Dict[CertificateCompressionAlgorithm, Optional[float]]
    all_three_share: float
    scanned_services: int

    def as_table(self) -> Table:
        table = Table(
            [
                Column("browser"),
                Column("version"),
                Column("initial_size"),
                Column("algorithm"),
                Column("mean_rate"),
                Column("service_support"),
            ]
        )
        algorithm_of_browser = {
            "firefox": None,
            "chromium": CertificateCompressionAlgorithm.BROTLI,
            "safari": CertificateCompressionAlgorithm.ZLIB,
        }
        for key, profile in self.browsers.items():
            algorithm = algorithm_of_browser.get(key)
            rate = self.mean_rates.get(algorithm) if algorithm else None
            support = self.support_shares.get(algorithm) if algorithm else None
            table.add_row(
                profile.name,
                profile.version,
                profile.initial_size if profile.initial_size else "no QUIC",
                algorithm.label if algorithm else "-",
                f"{rate:.0%}" if rate is not None else "-",
                f"{support:.0%}" if support is not None else "-",
            )
        return table

    def render_text(self) -> str:
        text = self.as_table().render_text(
            "Table 1: browser Initial sizes and certificate-compression support"
        )
        return (
            text
            + f"\n  services supporting all three algorithms: {self.all_three_share:.2%} "
            f"(of {self.scanned_services})"
        )


def compute_from_reduction(
    support_counts: Dict[CertificateCompressionAlgorithm, int],
    rates: Dict[CertificateCompressionAlgorithm, Sequence[float]],
    all_three_count: int,
    scanned_services: int,
) -> BrowserCompressionTable:
    """The table from the reduced compression-scan accumulators.

    ``rates`` holds each algorithm's measured compression rates in observation
    (= shard concatenation) order, so the mean is the same left-to-right float
    sum however the campaign was sharded.
    """
    support_shares = {
        algorithm: (support_counts.get(algorithm, 0) / scanned_services if scanned_services else 0.0)
        for algorithm in CertificateCompressionAlgorithm
    }
    mean_rates: Dict[CertificateCompressionAlgorithm, Optional[float]] = {}
    for algorithm in CertificateCompressionAlgorithm:
        algorithm_rates = list(rates.get(algorithm, ()))
        mean_rates[algorithm] = (
            sum(algorithm_rates) / len(algorithm_rates) if algorithm_rates else None
        )
    return BrowserCompressionTable(
        browsers=dict(BROWSER_PROFILES),
        support_shares=support_shares,
        mean_rates=mean_rates,
        all_three_share=all_three_count / scanned_services if scanned_services else 0.0,
        scanned_services=scanned_services,
    )
