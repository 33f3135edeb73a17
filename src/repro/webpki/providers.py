"""Hosting providers and deployment archetypes.

A *deployment archetype* bundles everything that determines how a domain
behaves in the measurements: which provider serves it, which CA chain profile
it deploys, which QUIC server behaviour the provider's stack exhibits, how
many subject alternative names its leaf carries, and how likely the service
sits behind an encapsulating load balancer.

The archetype weights are the paper's observed shares (Figure 7a/7b for chain
popularity, §4.1 for behaviour shares); the population generator samples from
them, so every downstream figure inherits the calibration from one place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..netsim.address import IPv4Prefix
from ..x509.ca import regional_profile_labels
from ..quic.profiles import (
    CLOUDFLARE_LIKE,
    GOOGLE_LIKE,
    MVFST_LIKE,
    RETRY_ALWAYS,
    RFC_COMPLIANT,
    ServerBehaviorProfile,
)
from ..x509.keys import KeyAlgorithm


@dataclass(frozen=True)
class HostingProvider:
    """A hosting organisation with address space and a QUIC stack behaviour."""

    name: str
    behavior: ServerBehaviorProfile
    prefixes: Tuple[IPv4Prefix, ...]
    is_hypergiant: bool = False

    def prefix_for(self, index: int) -> IPv4Prefix:
        return self.prefixes[index % len(self.prefixes)]


PROVIDERS: Dict[str, HostingProvider] = {
    "cloudflare": HostingProvider(
        name="cloudflare",
        behavior=CLOUDFLARE_LIKE,
        prefixes=(IPv4Prefix.parse("104.16.0.0/16"), IPv4Prefix.parse("172.67.0.0/16")),
        is_hypergiant=True,
    ),
    "google": HostingProvider(
        name="google",
        behavior=GOOGLE_LIKE,
        prefixes=(IPv4Prefix.parse("142.250.0.0/16"), IPv4Prefix.parse("172.217.0.0/16")),
        is_hypergiant=True,
    ),
    "meta": HostingProvider(
        name="meta",
        behavior=MVFST_LIKE,
        prefixes=(IPv4Prefix.parse("157.240.20.0/24"),),
        is_hypergiant=True,
    ),
    "generic-quic-hosting": HostingProvider(
        name="generic-quic-hosting",
        behavior=RFC_COMPLIANT,
        prefixes=(IPv4Prefix.parse("185.0.0.0/12"), IPv4Prefix.parse("51.0.0.0/10")),
    ),
    "retry-fronted": HostingProvider(
        name="retry-fronted",
        behavior=RETRY_ALWAYS,
        prefixes=(IPv4Prefix.parse("203.0.112.0/22"),),
    ),
    "https-only-hosting": HostingProvider(
        name="https-only-hosting",
        behavior=RFC_COMPLIANT,  # irrelevant: these services never answer QUIC
        prefixes=(IPv4Prefix.parse("93.0.0.0/10"), IPv4Prefix.parse("23.0.0.0/12")),
    ),
}


@dataclass(frozen=True)
class DeploymentArchetype:
    """One way a domain can be deployed, with its sampling weight."""

    name: str
    weight: float
    provider: str
    ca_profile: str
    #: When set, the CA profile is drawn uniformly from this pool per domain
    #: instead of using ``ca_profile`` (used for the long tail of regional CAs).
    ca_profile_pool: Tuple[str, ...] = ()
    #: Force a leaf key algorithm, or None to use the CA profile's default.
    leaf_key_algorithm: Optional[KeyAlgorithm] = None
    #: (minimum, mode, maximum) of the SAN-count triangular distribution.
    san_count_range: Tuple[int, int, int] = (1, 2, 6)
    #: Probability that the service sits behind an encapsulating load balancer.
    tunnel_probability: float = 0.0
    #: Encapsulation overhead in bytes when tunnelled (GRE/IPinIP ≈ 24–48).
    tunnel_overhead: int = 28
    #: Probability of a deployment quirk that ships a huge, bloated chain
    #: (duplicated intermediates / root / hundreds of SANs).
    bloated_chain_probability: float = 0.0


def sample_san_count(rng: random.Random, archetype: DeploymentArchetype) -> int:
    """Sample how many DNS SANs the leaf certificate carries.

    Most leaves carry a handful of names; a heavy tail produces the
    "cruise-liner" certificates of the paper's Appendix E.
    """
    low, mode, high = archetype.san_count_range
    count = int(round(rng.triangular(low, high, mode)))
    roll = rng.random()
    if roll < 0.001:
        count = rng.randint(200, 450)
    elif roll < 0.01:
        count = rng.randint(50, 200)
    elif roll < 0.05:
        count = rng.randint(10, 50)
    return max(1, count)


# ---------------------------------------------------------------------------
# QUIC service archetypes — weights follow Figure 7(a) and §4.1
# ---------------------------------------------------------------------------

QUIC_ARCHETYPES: Tuple[DeploymentArchetype, ...] = (
    DeploymentArchetype(
        name="cloudflare-ecdsa",
        weight=61.54,
        provider="cloudflare",
        ca_profile="Cloudflare ECC CA-3",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(2, 3, 4),
        tunnel_probability=0.02,
    ),
    DeploymentArchetype(
        name="lets-encrypt-long-rsa",
        weight=16.80,
        provider="generic-quic-hosting",
        ca_profile="Let's Encrypt R3 + cross-signed X1",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 8),
        tunnel_probability=0.01,
    ),
    DeploymentArchetype(
        name="lets-encrypt-long-ecdsa",
        weight=10.31,
        provider="generic-quic-hosting",
        ca_profile="Let's Encrypt R3 + root X1",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 3, 10),
        tunnel_probability=0.01,
    ),
    DeploymentArchetype(
        name="google-1c3",
        weight=1.89,
        provider="google",
        ca_profile="Google 1C3",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 3, 12),
        tunnel_probability=0.30,
    ),
    DeploymentArchetype(
        name="google-1d4",
        weight=1.53,
        provider="google",
        ca_profile="Google 1D4",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 2, 8),
        tunnel_probability=0.30,
    ),
    DeploymentArchetype(
        name="google-1p5",
        weight=1.27,
        provider="google",
        ca_profile="Google 1P5",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 8),
        tunnel_probability=0.30,
    ),
    DeploymentArchetype(
        name="sectigo-ecc",
        weight=1.03,
        provider="generic-quic-hosting",
        ca_profile="Sectigo ECC DV",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 2, 6),
    ),
    DeploymentArchetype(
        name="cpanel-comodo",
        weight=0.92,
        provider="generic-quic-hosting",
        ca_profile="cPanel / Comodo",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(2, 4, 12),
    ),
    DeploymentArchetype(
        name="lets-encrypt-e1-short",
        weight=0.83,
        provider="generic-quic-hosting",
        ca_profile="Let's Encrypt E1 (short)",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 2, 4),
    ),
    DeploymentArchetype(
        name="globalsign-atlas",
        weight=0.37,
        provider="generic-quic-hosting",
        ca_profile="GlobalSign Atlas R3 DV",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 6),
    ),
    # Long tail beyond the top-10 parent chains (≈3.5 % of QUIC services).
    DeploymentArchetype(
        name="quic-tail-sectigo-rsa",
        weight=1.40,
        provider="generic-quic-hosting",
        ca_profile="Sectigo RSA DV / USERTRUST",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 10),
    ),
    DeploymentArchetype(
        name="quic-tail-digicert",
        weight=0.30,
        provider="generic-quic-hosting",
        ca_profile="DigiCert TLS RSA 2020",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 4, 16),
        bloated_chain_probability=0.01,
    ),
    DeploymentArchetype(
        name="quic-tail-amazon-long",
        weight=1.09,
        provider="generic-quic-hosting",
        ca_profile="Amazon RSA 2048 M02 (long)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 10),
    ),
    # Borderline chains whose first flight fits only for the largest client
    # Initials — these produce the Multi-RTT → 1-RTT shift across the sweep.
    DeploymentArchetype(
        name="quic-tail-godaddy",
        weight=0.50,
        provider="generic-quic-hosting",
        ca_profile="GoDaddy G2",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 6),
    ),
    DeploymentArchetype(
        name="meta-mvfst",
        weight=0.15,
        provider="meta",
        ca_profile="DigiCert SHA2 + root (Meta)",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(20, 40, 80),
    ),
    DeploymentArchetype(
        name="retry-always-fronted",
        weight=0.07,
        provider="retry-fronted",
        ca_profile="Let's Encrypt R3 (short)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 4),
    ),
)


# ---------------------------------------------------------------------------
# HTTPS-only service archetypes — weights follow Figure 7(b)
# ---------------------------------------------------------------------------

HTTPS_ONLY_ARCHETYPES: Tuple[DeploymentArchetype, ...] = (
    DeploymentArchetype(
        name="https-lets-encrypt-long",
        weight=41.42,
        provider="https-only-hosting",
        ca_profile="Let's Encrypt R3 + cross-signed X1",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 4, 24),
    ),
    DeploymentArchetype(
        name="https-sectigo-usertrust",
        weight=6.33,
        provider="https-only-hosting",
        ca_profile="Sectigo RSA DV / USERTRUST",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 10),
    ),
    DeploymentArchetype(
        name="https-cpanel-comodo",
        weight=5.03,
        provider="https-only-hosting",
        ca_profile="cPanel / Comodo",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(2, 4, 12),
    ),
    DeploymentArchetype(
        name="https-amazon-long",
        weight=4.55,
        provider="https-only-hosting",
        ca_profile="Amazon RSA 2048 M02 (long)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 4, 20),
    ),
    DeploymentArchetype(
        name="https-digicert-sha2",
        weight=4.24,
        provider="https-only-hosting",
        ca_profile="DigiCert SHA2",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 4, 20),
        bloated_chain_probability=0.02,
    ),
    DeploymentArchetype(
        name="https-digicert-tls-rsa",
        weight=4.03,
        provider="https-only-hosting",
        ca_profile="DigiCert TLS RSA 2020",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 4, 20),
    ),
    DeploymentArchetype(
        name="https-godaddy",
        weight=1.76,
        provider="https-only-hosting",
        ca_profile="GoDaddy G2",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 8),
    ),
    DeploymentArchetype(
        name="https-lets-encrypt-short",
        weight=1.60,
        provider="https-only-hosting",
        ca_profile="Let's Encrypt R3 (short)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 6),
    ),
    DeploymentArchetype(
        name="https-cloudflare-no-quic",
        weight=1.55,
        provider="https-only-hosting",
        ca_profile="Cloudflare ECC CA-3",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(2, 3, 4),
    ),
    DeploymentArchetype(
        name="https-starfield",
        weight=1.40,
        provider="https-only-hosting",
        ca_profile="Starfield G2 + root",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 8),
    ),
    # The remaining ≈28 % of HTTPS-only services use a long tail of chains;
    # most of it is spread over many small regional CAs so that the top-10
    # parent chains only cover ≈72 % of HTTPS-only services (Figure 7b).
    DeploymentArchetype(
        name="https-tail-regional",
        weight=21.00,
        provider="https-only-hosting",
        ca_profile="Regional DV #1",
        ca_profile_pool=tuple(regional_profile_labels()),
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 16),
        bloated_chain_probability=0.005,
    ),
    DeploymentArchetype(
        name="https-tail-lets-encrypt-rsa",
        weight=2.50,
        provider="https-only-hosting",
        ca_profile="Let's Encrypt R3 (short)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 16),
        bloated_chain_probability=0.005,
    ),
    DeploymentArchetype(
        name="https-tail-amazon-short",
        weight=2.00,
        provider="https-only-hosting",
        ca_profile="Amazon RSA 2048 M02 (short)",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 3, 16),
    ),
    DeploymentArchetype(
        name="https-tail-globalsign",
        weight=1.50,
        provider="https-only-hosting",
        ca_profile="GlobalSign Atlas R3 DV",
        leaf_key_algorithm=KeyAlgorithm.RSA_2048,
        san_count_range=(1, 2, 10),
    ),
    DeploymentArchetype(
        name="https-tail-ecdsa",
        weight=1.09,
        provider="https-only-hosting",
        ca_profile="Let's Encrypt E1 (short)",
        leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
        san_count_range=(1, 2, 6),
    ),
)


# Cumulative weights, precomputed once: ``choices(cum_weights=...)`` consumes
# the same single ``random()`` draw — and selects the same archetype — as
# ``choices(weights=...)`` over the same weights, but skips the per-call
# accumulation; the generator samples an archetype per resolved domain.
def _cumulative(archetypes: Sequence[DeploymentArchetype]) -> Tuple[float, ...]:
    total = 0.0
    out = []
    for archetype in archetypes:
        total += archetype.weight
        out.append(total)
    return tuple(out)


_QUIC_CUM_WEIGHTS = _cumulative(QUIC_ARCHETYPES)
_HTTPS_ONLY_CUM_WEIGHTS = _cumulative(HTTPS_ONLY_ARCHETYPES)


def choose_quic_archetype(rng: random.Random) -> DeploymentArchetype:
    return rng.choices(QUIC_ARCHETYPES, cum_weights=_QUIC_CUM_WEIGHTS)[0]


def choose_https_only_archetype(rng: random.Random) -> DeploymentArchetype:
    return rng.choices(HTTPS_ONLY_ARCHETYPES, cum_weights=_HTTPS_ONLY_CUM_WEIGHTS)[0]
