"""The §5 client-side mitigation, as executable policy.

:class:`InitialSizeCache` is the mitigation the paper proposes: remember, per
server, how large the server's first flight was, and size the next Initial so
the flight fits within 3× of it (low latency without certificate
compression).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .limits import ANTI_AMPLIFICATION_FACTOR, MAX_INITIAL_SIZE_AT_MTU_1500, MIN_INITIAL_SIZE


@dataclass
class CacheEntry:
    """Per-server knowledge a client accumulates."""

    server_name: str
    observed_first_flight_bytes: int
    achieved_one_rtt: bool
    suggested_initial_size: int


class InitialSizeCache:
    """Client-side cache of server flight sizes (the §5 client mitigation)."""

    def __init__(
        self,
        default_initial_size: int = 1250,
        mtu_limit: int = MAX_INITIAL_SIZE_AT_MTU_1500,
    ) -> None:
        if default_initial_size < MIN_INITIAL_SIZE:
            raise ValueError("the default Initial size must satisfy the RFC 9000 minimum")
        self._default = default_initial_size
        self._mtu_limit = mtu_limit
        self._entries: Dict[str, CacheEntry] = {}

    # -- use ---------------------------------------------------------------------

    def initial_size_for(self, server_name: str) -> int:
        """The Initial size to use for the next connection to ``server_name``."""
        entry = self._entries.get(server_name.lower())
        if entry is None:
            return self._default
        return entry.suggested_initial_size

    def record_handshake(
        self,
        server_name: str,
        server_first_flight_bytes: int,
        achieved_one_rtt: bool,
    ) -> CacheEntry:
        """Update the cache after a handshake with what the server needed."""
        if server_first_flight_bytes < 0:
            raise ValueError("flight size must be non-negative")
        needed = max(
            MIN_INITIAL_SIZE,
            -(-server_first_flight_bytes // ANTI_AMPLIFICATION_FACTOR),  # ceil division
        )
        suggested = min(max(needed, self._default), self._mtu_limit)
        entry = CacheEntry(
            server_name=server_name.lower(),
            observed_first_flight_bytes=server_first_flight_bytes,
            achieved_one_rtt=achieved_one_rtt,
            suggested_initial_size=suggested,
        )
        self._entries[entry.server_name] = entry
        return entry
