"""Telescope backscatter analysis (§3.2 "incomplete handshakes", §4.3, Figure 9).

Two pieces live here:

* :func:`simulate_spoofed_campaign` drives the simulated network the way the
  Internet drives the real one: spoofed-source Initials hit hypergiant QUIC
  servers, and the responses land in the telescope's dark address space.
* :class:`BackscatterAnalyzer` groups the telescope's packets by source
  connection ID and hypergiant, computes per-session amplification factors and
  session durations, exactly as the paper does with UCSD telescope data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..netsim.address import IPv4Address, IPv4Prefix
from ..netsim.network import UdpNetwork
from ..netsim.telescope import BackscatterSession, Telescope
from ..quic.client import QuicClientConfig

#: Assumed client Initial size when normalising backscatter into amplification
#: factors (the paper uses 1362 bytes, §4.3).
ASSUMED_INITIAL_SIZE = 1362


@dataclass(frozen=True)
class ProviderBackscatter:
    """Aggregated backscatter for one content provider."""

    provider: str
    session_count: int
    amplification_factors: Tuple[float, ...]
    median_session_duration_s: float
    max_session_duration_s: float


class BackscatterAnalyzer:
    """Groups telescope sessions by provider and computes amplification factors."""

    def __init__(
        self,
        telescope: Telescope,
        provider_of_domain,
        assumed_initial_size: int = ASSUMED_INITIAL_SIZE,
    ) -> None:
        """``provider_of_domain`` maps a domain to its provider name."""
        self._telescope = telescope
        self._provider_of_domain = provider_of_domain
        self._assumed_initial_size = assumed_initial_size

    def sessions_by_provider(self) -> Dict[str, List[BackscatterSession]]:
        grouped: Dict[str, List[BackscatterSession]] = {}
        for session in self._telescope.sessions():
            provider = self._provider_of_domain(session.domain) or "unknown"
            grouped.setdefault(provider, []).append(session)
        return grouped

    def analyze(self) -> Dict[str, ProviderBackscatter]:
        results: Dict[str, ProviderBackscatter] = {}
        for provider, sessions in self.sessions_by_provider().items():
            factors = tuple(
                session.amplification_factor(self._assumed_initial_size) for session in sessions
            )
            durations = sorted(session.duration_seconds for session in sessions)
            median_duration = durations[len(durations) // 2] if durations else 0.0
            results[provider] = ProviderBackscatter(
                provider=provider,
                session_count=len(sessions),
                amplification_factors=factors,
                median_session_duration_s=median_duration,
                max_session_duration_s=durations[-1] if durations else 0.0,
            )
        return results


def simulate_spoofed_campaign(
    network: UdpNetwork,
    targets: Sequence[IPv4Address],
    telescope_prefix: IPv4Prefix,
    spoof_count_per_target: int = 1,
    seed: int = 7,
    initial_size: int = 1252,
) -> int:
    """Send spoofed-source Initials at ``targets``; responses land in the telescope.

    Returns the number of probes that elicited a response.  The spoofed source
    addresses are drawn from the telescope prefix, which is how the telescope
    gets to observe the server behaviour without ever sending a packet.
    """
    rng = random.Random(f"spoof:{seed}")
    client = QuicClientConfig(initial_datagram_size=initial_size)
    responded = 0
    timestamp = 0.0
    for target in targets:
        for _ in range(spoof_count_per_target):
            offset = rng.randrange(telescope_prefix.num_addresses)
            victim = telescope_prefix.address_at(offset)
            delivery = network.probe_unvalidated(
                target, client=client, spoofed_source=victim, timestamp=timestamp
            )
            if delivery.responded:
                responded += 1
            timestamp += rng.uniform(0.5, 5.0)
    return responded
