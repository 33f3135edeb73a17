"""Server behaviour profiles.

The paper attributes the observed handshake classes not only to certificate
sizes but to *implementation behaviour*: Cloudflare's missing packet
coalescence and padding accounting, Meta's (mvfst) unbounded retransmissions to
unvalidated clients, and the rare always-on Retry deployments.  A
:class:`ServerBehaviorProfile` captures those degrees of freedom so the
simulated servers reproduce each behaviour from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Dict, Tuple

from ..tls.cert_compression import CertificateCompressionAlgorithm


class CoalescenceMode(Enum):
    """How a server maps its first-flight packets onto UDP datagrams."""

    #: Initial (ACK + ServerHello) and Handshake packets coalesced into MTU-sized datagrams.
    FULL = "full"
    #: Every packet in its own datagram, Initial datagrams padded.
    NONE = "none"
    #: Cloudflare-like: the Initial ACK and the Initial carrying the ServerHello
    #: are sent in two separate, individually padded datagrams; no coalescing
    #: of Initial and Handshake data either.
    SPLIT_INITIAL_ACK = "split-initial-ack"


class RetryPolicy(Enum):
    """Whether the server validates addresses with Retry before answering."""

    NEVER = "never"
    ALWAYS = "always"


@dataclass(frozen=True)
class ServerBehaviorProfile:
    """Tunable server behaviour used by :class:`repro.quic.server.QuicServer`."""

    name: str
    coalescence: CoalescenceMode = CoalescenceMode.FULL
    retry_policy: RetryPolicy = RetryPolicy.NEVER
    #: Pad every datagram that carries an Initial packet to the minimum size,
    #: even if it is not ack-eliciting (RFC only requires padding for
    #: ack-eliciting Initials; padding everything wastes amplification budget).
    pad_all_initial_datagrams: bool = False
    #: Whether padding bytes are charged against the anti-amplification limit.
    #: RFC 9000 requires yes; Cloudflare's stack behaves as if no.
    count_padding_against_limit: bool = True
    #: Whether the limit is enforced at all when building the first flight for
    #: an unvalidated address.  mvfst deployments before October 2022 did not.
    enforce_amplification_limit: bool = True
    #: Whether the limit is also enforced when *retransmitting* unacknowledged
    #: handshake data to a still-unvalidated address.  Several hypergiant
    #: stacks enforce it on the first flight but keep retransmitting beyond it
    #: (the backscatter amplification the paper measures in Figure 9).
    enforce_limit_on_retransmissions: bool = True
    #: How many times the server retransmits its unacknowledged first flight to
    #: a silent, unvalidated client (loss recovery persistence).
    unvalidated_retransmission_rounds: int = 1
    #: RFC 8879 algorithms the server supports.
    compression_algorithms: Tuple[CertificateCompressionAlgorithm, ...] = ()
    #: Server's UDP MTU towards clients.
    mtu: int = 1472

    def supports_compression(self, algorithm: CertificateCompressionAlgorithm) -> bool:
        return algorithm in self.compression_algorithms

    def with_compression(
        self, *algorithms: CertificateCompressionAlgorithm
    ) -> "ServerBehaviorProfile":
        return replace(self, compression_algorithms=tuple(algorithms))

    def describe(self) -> str:
        """One-line description for reports."""
        parts = [
            f"coalescence={self.coalescence.value}",
            f"retry={self.retry_policy.value}",
            f"limit={'on' if self.enforce_amplification_limit else 'off'}",
            f"padding-counted={'yes' if self.count_padding_against_limit else 'no'}",
            f"resend-rounds={self.unvalidated_retransmission_rounds}",
        ]
        if self.compression_algorithms:
            parts.append("compression=" + "+".join(a.label for a in self.compression_algorithms))
        return f"{self.name}: " + ", ".join(parts)


#: RFC-compliant stack (e.g. quiche/quic-go style behaviour): coalescence,
#: padding counted, one retransmission attempt bounded by the limit.  Most
#: such stacks link a TLS library with brotli certificate compression.
RFC_COMPLIANT = ServerBehaviorProfile(
    name="rfc-compliant",
    coalescence=CoalescenceMode.FULL,
    count_padding_against_limit=True,
    enforce_amplification_limit=True,
    enforce_limit_on_retransmissions=True,
    unvalidated_retransmission_rounds=1,
    compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
)

#: The same stack built against a TLS library without RFC 8879 support
#: (e.g. OpenSSL-based builds); a small minority of deployments.
RFC_COMPLIANT_NO_COMPRESSION = ServerBehaviorProfile(
    name="rfc-compliant-no-compression",
    coalescence=CoalescenceMode.FULL,
    count_padding_against_limit=True,
    enforce_amplification_limit=True,
    enforce_limit_on_retransmissions=True,
    unvalidated_retransmission_rounds=1,
)

#: Cloudflare-like stack: no coalescence, the Initial ACK and the Initial
#: carrying the ServerHello go into two separately padded datagrams whose
#: padding is not counted against the limit, which yields 1-RTT handshakes
#: that exceed 3× ("Amplification" class).  Supports brotli compression.
CLOUDFLARE_LIKE = ServerBehaviorProfile(
    name="cloudflare-like",
    coalescence=CoalescenceMode.SPLIT_INITIAL_ACK,
    pad_all_initial_datagrams=True,
    count_padding_against_limit=False,
    enforce_amplification_limit=True,
    enforce_limit_on_retransmissions=False,
    unvalidated_retransmission_rounds=1,
    compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
)

#: Meta/mvfst-like stack before the October 2022 fix: retransmits its full
#: flight many times to unvalidated clients without applying the limit.
MVFST_LIKE = ServerBehaviorProfile(
    name="mvfst-like",
    coalescence=CoalescenceMode.FULL,
    count_padding_against_limit=True,
    enforce_amplification_limit=False,
    enforce_limit_on_retransmissions=False,
    unvalidated_retransmission_rounds=5,
    compression_algorithms=(
        CertificateCompressionAlgorithm.ZLIB,
        CertificateCompressionAlgorithm.BROTLI,
        CertificateCompressionAlgorithm.ZSTD,
    ),
)

#: Meta/mvfst-like stack after responsible disclosure: no more blind
#: retransmission storms, but the first flight still slightly exceeds the
#: limit (mean ≈5×) because the limit is not enforced on the initial flight.
MVFST_PATCHED = ServerBehaviorProfile(
    name="mvfst-patched",
    coalescence=CoalescenceMode.FULL,
    count_padding_against_limit=True,
    enforce_amplification_limit=False,
    enforce_limit_on_retransmissions=True,
    unvalidated_retransmission_rounds=0,
    compression_algorithms=(
        CertificateCompressionAlgorithm.ZLIB,
        CertificateCompressionAlgorithm.BROTLI,
        CertificateCompressionAlgorithm.ZSTD,
    ),
)

#: Always-on Retry (a priori DoS protection); rare in the wild (~0.07 %).
RETRY_ALWAYS = ServerBehaviorProfile(
    name="retry-always",
    coalescence=CoalescenceMode.FULL,
    retry_policy=RetryPolicy.ALWAYS,
    unvalidated_retransmission_rounds=1,
)

#: Google-like stack: compliant coalescence and first-flight accounting, brotli
#: support, but persistent retransmission towards unvalidated clients that is
#: not bounded by the limit (amplification up to ≈10× in backscatter).
GOOGLE_LIKE = ServerBehaviorProfile(
    name="google-like",
    coalescence=CoalescenceMode.FULL,
    count_padding_against_limit=True,
    enforce_amplification_limit=True,
    enforce_limit_on_retransmissions=False,
    unvalidated_retransmission_rounds=2,
    compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
)


@lru_cache(maxsize=None)
def with_universal_compression(profile: ServerBehaviorProfile) -> ServerBehaviorProfile:
    """The same stack linked against an RFC 8879-capable TLS library.

    The "universal certificate compression" counterfactual of the scenario
    layer: profiles that already negotiate compression are returned unchanged
    (identity preserved), everything else gains brotli.  Cached so all
    deployments of a scenario share one substituted profile instance — the
    flight-plan cache then keys them identically.
    """
    if profile.compression_algorithms:
        return profile
    return profile.with_compression(CertificateCompressionAlgorithm.BROTLI)


@lru_cache(maxsize=None)
def without_compression(profile: ServerBehaviorProfile) -> ServerBehaviorProfile:
    """The same stack with certificate compression unlinked.

    The non-adopter half of the ``compression_adoption`` counterfactual:
    profiles that never negotiated compression are returned unchanged
    (identity preserved), everything else loses its algorithms.  Cached for
    the same flight-plan-identity reason as :func:`with_universal_compression`.
    """
    if not profile.compression_algorithms:
        return profile
    return profile.with_compression()


BUILTIN_PROFILES: Dict[str, ServerBehaviorProfile] = {
    profile.name: profile
    for profile in (
        RFC_COMPLIANT,
        RFC_COMPLIANT_NO_COMPRESSION,
        CLOUDFLARE_LIKE,
        MVFST_LIKE,
        MVFST_PATCHED,
        RETRY_ALWAYS,
        GOOGLE_LIKE,
    )
}
