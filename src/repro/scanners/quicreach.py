"""QUIC handshake classification scanner (quicreach equivalent, §3.2).

For each target the scanner performs a complete QUIC handshake through the
simulated network and classifies it into the paper's four groups.  The
:class:`InitialSizeSweep` repeats the scan for every Initial size between 1200
and 1472 bytes in steps of 10, the sweep behind Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from ..netsim.network import QuicServiceHost, UdpNetwork
from ..quic.client import QuicClientConfig
from ..quic.handshake import HandshakeClass, simulate_handshakes
from ..quic.server import FlightPlanCache
from ..tls.cert_compression import CertificateCompressionAlgorithm

#: The Initial sizes of the paper's sweep: 1200..1472 in steps of 10 (the last
#: step is capped by the MTU of 1472 bytes).
SWEEP_INITIAL_SIZES: Tuple[int, ...] = tuple(range(1200, 1472, 10)) + (1472,)

#: The Initial size used for the in-depth analyses (close to Firefox's 1357).
DEFAULT_ANALYSIS_INITIAL_SIZE = 1362


@dataclass(frozen=True)
class HandshakeObservation:
    """One handshake attempt against one service at one Initial size."""

    domain: str
    rank: int
    provider: Optional[str]
    initial_size: int
    reachable: bool
    handshake_class: Optional[HandshakeClass] = None
    first_rtt_bytes: int = 0
    total_bytes: int = 0
    tls_payload_bytes: int = 0
    quic_overhead_bytes: int = 0
    round_trips: int = 0
    chain_size: int = 0

    @property
    def amplification_factor(self) -> float:
        if self.initial_size == 0:
            return 0.0
        return self.first_rtt_bytes / self.initial_size

    @property
    def exceeds_limit(self) -> bool:
        return self.first_rtt_bytes > 3 * self.initial_size


@dataclass(frozen=True)
class SweepResult:
    """All observations of an Initial-size sweep."""

    observations: Tuple[HandshakeObservation, ...]


class QuicReach:
    """The handshake classification scanner."""

    def __init__(
        self,
        network: UdpNetwork,
        pause_between_scans_s: float = 1800.0,
        flight_cache: Optional[FlightPlanCache] = None,
    ) -> None:
        """``pause_between_scans_s`` documents the paper's 30-minute pacing; it
        is not simulated as wall-clock time but kept for fidelity of reports.
        ``flight_cache`` replaces the process-wide flight-plan cache (sharded
        campaign workers warm one per shard)."""
        self._network = network
        self.pause_between_scans_s = pause_between_scans_s
        self._flight_cache = flight_cache

    def scan_domain(
        self,
        domain: str,
        rank: int = 0,
        provider: Optional[str] = None,
        initial_size: int = DEFAULT_ANALYSIS_INITIAL_SIZE,
        compression: Sequence[CertificateCompressionAlgorithm] = (),
    ) -> HandshakeObservation:
        """Attempt one complete handshake with the given client Initial size."""
        (observation,) = self._scan_target(
            domain, rank, provider, (initial_size,), tuple(compression)
        )
        return observation

    def scan_many(
        self,
        targets: Sequence[Tuple[str, int, Optional[str]]],
        initial_size: int = DEFAULT_ANALYSIS_INITIAL_SIZE,
        compression: Sequence[CertificateCompressionAlgorithm] = (),
    ) -> List[HandshakeObservation]:
        """Scan a list of (domain, rank, provider) targets at one Initial size.

        ``compression`` is the client's RFC 8879 offer (empty, like the
        paper's scanner, unless a scenario turns it on).
        """
        sizes, offer = (initial_size,), tuple(compression)
        return [
            self._scan_target(domain, rank, provider, sizes, offer)[0]
            for domain, rank, provider in targets
        ]

    def _scan_target(
        self,
        domain: str,
        rank: int,
        provider: Optional[str],
        initial_sizes: Sequence[int],
        offer: Tuple[CertificateCompressionAlgorithm, ...],
    ) -> List[HandshakeObservation]:
        """One observation per Initial size, in order, against one target.

        The host lookup, the server and its cached flight serve every size
        (:func:`~repro.quic.handshake.simulate_handshakes`).
        """
        host = self._network.host_for_domain(domain)
        if host is None:
            return [
                HandshakeObservation(
                    domain=domain, rank=rank, provider=provider,
                    initial_size=initial_size, reachable=False,
                )
                for initial_size in initial_sizes
            ]
        # Every size is validated, also those the host will not answer.
        clients = [_client_config(size, offer) for size in initial_sizes]
        # Encapsulation overhead can push a datagram over the path MTU; the
        # service does not answer those sizes (the reachability drop of §4.1).
        accepted = [host.accepts_initial(size) for size in initial_sizes]
        outcomes = iter(simulate_handshakes(
            domain, host.chain, host.profile,
            [client for client, answered in zip(clients, accepted) if answered],
            flight_cache=self._flight_cache,
        ))
        chain_size = host.chain.total_size
        observations: List[HandshakeObservation] = []
        for initial_size, answered in zip(initial_sizes, accepted):
            if not answered:
                observations.append(HandshakeObservation(
                    domain=domain, rank=rank, provider=provider,
                    initial_size=initial_size, reachable=False,
                ))
                continue
            outcome = next(outcomes)
            trace = outcome.trace
            observations.append(HandshakeObservation(
                domain=domain,
                rank=rank,
                provider=provider,
                initial_size=initial_size,
                reachable=True,
                handshake_class=outcome.handshake_class,
                first_rtt_bytes=trace.server_bytes_first_rtt,
                total_bytes=trace.server_bytes_total,
                tls_payload_bytes=trace.tls_payload_bytes,
                quic_overhead_bytes=trace.quic_overhead_bytes,
                round_trips=trace.round_trips,
                chain_size=chain_size,
            ))
        return observations


@lru_cache(maxsize=1024)
def _client_config(
    initial_size: int, offer: Tuple[CertificateCompressionAlgorithm, ...]
) -> QuicClientConfig:
    """The scanner's client configuration for one Initial size and RFC 8879
    offer (validated once, when first built)."""
    return QuicClientConfig(initial_datagram_size=initial_size, compression_algorithms=offer)


class InitialSizeSweep:
    """The Figure 3 sweep: every target at every Initial size."""

    def __init__(self, scanner: QuicReach, initial_sizes: Sequence[int] = SWEEP_INITIAL_SIZES) -> None:
        self._scanner = scanner
        self._initial_sizes = tuple(initial_sizes)

    def run(self, targets: Sequence[Tuple[str, int, Optional[str]]]) -> SweepResult:
        """Every target at every Initial size, observations in size-major
        order (all targets at the first size, then the next size, ...).

        Computed target-major: each target's host, server and cached flight
        serve all of its sizes, then the per-target columns are transposed.
        """
        per_target = [
            self._scanner._scan_target(domain, rank, provider, self._initial_sizes, ())
            for domain, rank, provider in targets
        ]
        return SweepResult(
            observations=tuple(
                observation for at_size in zip(*per_target) for observation in at_size
            )
        )
