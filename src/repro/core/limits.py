"""Anti-amplification limits, browser Initial sizes, and the limit's history.

This module is the single source of truth for the constants the analyses use:
the RFC 9000 3× factor, the minimum Initial size, the Initial sizes and
certificate-compression support of popular browsers (the paper's Table 1), and
the evolution of the amplification mitigation across QUIC Internet drafts
(the paper's Table 3, Appendix C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..tls.cert_compression import CertificateCompressionAlgorithm

#: RFC 9000 §8.1: a server may send at most three times the bytes received
#: from an unvalidated address.
ANTI_AMPLIFICATION_FACTOR = 3

#: RFC 9000 §14.1: client Initial datagrams must be at least 1200 bytes.
MIN_INITIAL_SIZE = 1200

#: The maximum UDP payload the paper's vantage point could emit (MTU 1500,
#: minus IP and UDP headers); QUIC forbids fragmentation.
MAX_INITIAL_SIZE_AT_MTU_1500 = 1472


def amplification_limit(client_initial_size: int) -> int:
    """The number of bytes a server may send before validating the client."""
    if client_initial_size < 0:
        raise ValueError("client Initial size must be non-negative")
    return ANTI_AMPLIFICATION_FACTOR * client_initial_size


@dataclass(frozen=True)
class BrowserProfile:
    """One row of the paper's Table 1."""

    name: str
    version: str
    initial_size: Optional[int]
    compression_algorithms: Tuple[CertificateCompressionAlgorithm, ...]

    @property
    def supports_quic(self) -> bool:
        return self.initial_size is not None


BROWSER_PROFILES: Dict[str, BrowserProfile] = {
    "firefox": BrowserProfile(
        name="Firefox", version="101.x", initial_size=1357, compression_algorithms=()
    ),
    "chromium": BrowserProfile(
        name="Chromium-based",
        version="105.x",
        initial_size=1250,  # recently reduced from 1350
        compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
    ),
    "safari": BrowserProfile(
        name="Safari (macOS)",
        version="15.5",
        initial_size=None,  # no QUIC
        compression_algorithms=(
            CertificateCompressionAlgorithm.ZLIB,
            CertificateCompressionAlgorithm.ZSTD,
        ),
    ),
}

#: The two "common amplification limits" the paper refers to: 3× the Chromium
#: and 3× the Firefox Initial sizes.
COMMON_AMPLIFICATION_LIMITS: Tuple[int, ...] = (
    amplification_limit(1250),
    amplification_limit(1357),
)

#: The larger of the two, used as the Figure 6 threshold (3 × 1357 = 4071).
LARGER_COMMON_LIMIT = max(COMMON_AMPLIFICATION_LIMITS)


@dataclass(frozen=True)
class DraftLimit:
    """One row of the paper's Table 3: how a draft bounded amplification."""

    spec: str
    date: str
    rule: str
    byte_limited: bool


AMPLIFICATION_LIMIT_HISTORY: Tuple[DraftLimit, ...] = (
    DraftLimit(
        spec="Draft 09",
        date="01/2018",
        rule=(
            "A server MAY send a CONNECTION_CLOSE frame with error code "
            "PROTOCOL_VIOLATION in response to an Initial packet smaller than 1200 octets."
        ),
        byte_limited=False,
    ),
    DraftLimit(
        spec="Draft 10 - 12",
        date="03/2018 - 05/2018",
        rule=(
            "Servers MUST NOT send more than three Handshake packets without "
            "receiving a packet from a verified source address."
        ),
        byte_limited=False,
    ),
    DraftLimit(
        spec="Draft 13 - 14",
        date="06/2018 - 08/2018",
        rule=(
            "Servers MUST NOT send more than three datagrams including Initial and "
            "Handshake packets without receiving a packet from a verified source address."
        ),
        byte_limited=False,
    ),
    DraftLimit(
        spec="Draft 15 - 32",
        date="10/2018 - 10/2020",
        rule=(
            "Servers MUST NOT send more than three times as many bytes as the number "
            "of bytes received prior to verifying the client's address."
        ),
        byte_limited=True,
    ),
    DraftLimit(
        spec="Draft 33 - 34, RFC 9000",
        date="12/2020 - 05/2021",
        rule=(
            "An endpoint MUST limit the amount of data it sends to the unvalidated "
            "address to three times the amount of data received from that address."
        ),
        byte_limited=True,
    ),
)
