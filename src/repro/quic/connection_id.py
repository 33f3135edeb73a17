"""QUIC connection identifiers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class ConnectionId:
    """An opaque connection ID (0–20 bytes, RFC 9000 §5.1)."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) > 20:
            raise ValueError("connection IDs are limited to 20 bytes")

    @classmethod
    def generate(cls, seed: str, length: int = 8) -> "ConnectionId":
        """Deterministically derive a connection ID from a seed string."""
        return _generate(seed, length)

    @classmethod
    def empty(cls) -> "ConnectionId":
        return cls(b"")

    def __len__(self) -> int:
        return len(self.value)


@lru_cache(maxsize=65_536)
def _generate(seed: str, length: int) -> ConnectionId:
    if not 0 <= length <= 20:
        raise ValueError("connection ID length must be within 0..20")
    digest = hashlib.sha256(seed.encode()).digest()
    return ConnectionId(digest[:length])
