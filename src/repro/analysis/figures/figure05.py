"""Figure 5: payload exchanged during multi-RTT handshakes.

For every multi-RTT handshake, the received traffic is split into TLS payload
and remaining QUIC bytes (headers, padding, AEAD overhead) and plotted against
the 3× limit.  The paper finds that in 87 % of multi-RTT handshakes the TLS
bytes alone already exceed the limit, and that superfluous QUIC padding can
contribute thousands of bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class MultiRttPayloadFigure:
    """Ranked series of (TLS bytes, total bytes, limit) for multi-RTT handshakes."""

    #: Sorted ascending by total received bytes, mirroring the paper's x-axis.
    entries: Tuple[Tuple[int, int, int], ...]  # (tls_bytes, total_bytes, limit_bytes)
    share_tls_alone_exceeds: float
    max_quic_overhead: int

    @property
    def handshake_count(self) -> int:
        return len(self.entries)

    def render_text(self) -> str:
        lines = [
            f"Figure 5: payload split of {self.handshake_count} multi-RTT handshakes",
            f"  TLS bytes alone exceed the 3x limit in {self.share_tls_alone_exceeds:.1%} of cases",
            f"  largest remaining-QUIC-bytes contribution: {self.max_quic_overhead} bytes",
        ]
        if self.entries:
            mid = self.entries[len(self.entries) // 2]
            lines.append(
                f"  median handshake: TLS={mid[0]} B, total={mid[1]} B, limit={mid[2]} B"
            )
        return "\n".join(lines)


def compute_from_rows(
    rows: Sequence[Tuple[int, int, int]],
    exceeds_count: int,
    max_overhead: int,
) -> MultiRttPayloadFigure:
    """Rank the multi-RTT handshakes by total received bytes.

    ``rows`` are the per-multi-RTT-handshake ``(tls_bytes, total_bytes,
    limit_bytes)`` triples in observation (= shard concatenation) order; the
    stable sort by total bytes breaks ties in observation order.
    """
    entries = tuple(sorted(rows, key=lambda row: row[1]))
    exceeds = exceeds_count / len(rows) if rows else 0.0
    return MultiRttPayloadFigure(
        entries=entries,
        share_tls_alone_exceeds=exceeds,
        max_quic_overhead=max_overhead,
    )
