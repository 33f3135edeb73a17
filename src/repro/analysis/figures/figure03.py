"""Figure 3: influence of the client Initial size on the QUIC handshake.

A stacked count of handshake classes (Amplification, Multi-RTT, RETRY, 1-RTT)
per client Initial size between 1200 and 1472 bytes.  The paper finds that
amplifying handshakes occur independently of the Initial size, that larger
Initials shift a small share from Multi-RTT to 1-RTT, and that reachability
drops slightly (≈1.2 %) for large Initials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ...quic.handshake import HandshakeClass
from ...scanners.quicreach import SweepResult
from ..dataset import Column, Table

STACK_ORDER = (
    HandshakeClass.AMPLIFICATION,
    HandshakeClass.MULTI_RTT,
    HandshakeClass.RETRY,
    HandshakeClass.ONE_RTT,
)


@dataclass(frozen=True)
class InitialSizeSweepFigure:
    """Counts per Initial size, the data behind the stacked bars."""

    counts: Dict[int, Dict[HandshakeClass, int]]
    reachable: Dict[int, int]
    scanned: Dict[int, int]

    def initial_sizes(self) -> List[int]:
        return sorted(self.counts)

    def share(self, initial_size: int, handshake_class: HandshakeClass) -> float:
        reachable = self.reachable.get(initial_size, 0)
        if reachable == 0:
            return 0.0
        return self.counts[initial_size].get(handshake_class, 0) / reachable

    def reachability_drop(self) -> float:
        """Relative loss of reachable services between smallest and largest Initial."""
        sizes = self.initial_sizes()
        if len(sizes) < 2:
            return 0.0
        first, last = self.reachable.get(sizes[0], 0), self.reachable.get(sizes[-1], 0)
        if first == 0:
            return 0.0
        return 1.0 - last / first

    def as_table(self) -> Table:
        table = Table(
            [
                Column("initial_size"),
                Column("amplification"),
                Column("multi_rtt"),
                Column("retry"),
                Column("one_rtt"),
                Column("reachable"),
            ]
        )
        for size in self.initial_sizes():
            row = self.counts[size]
            table.add_row(
                size,
                row.get(HandshakeClass.AMPLIFICATION, 0),
                row.get(HandshakeClass.MULTI_RTT, 0),
                row.get(HandshakeClass.RETRY, 0),
                row.get(HandshakeClass.ONE_RTT, 0),
                self.reachable.get(size, 0),
            )
        return table

    def render_text(self) -> str:
        header = "Figure 3: handshake classes per client Initial size"
        return header + "\n" + self.as_table().render_text()


def compute(sweep: SweepResult) -> InitialSizeSweepFigure:
    """Aggregate a quicreach sweep into the Figure 3 series, in one walk."""
    counts: Dict[int, Dict[HandshakeClass, int]] = {}
    reachable: Dict[int, int] = {}
    scanned: Dict[int, int] = {}
    for observation in sweep.observations:
        size = observation.initial_size
        if size not in scanned:
            counts[size], reachable[size], scanned[size] = {}, 0, 0
        scanned[size] += 1
        if observation.reachable:
            reachable[size] += 1
            handshake_class = observation.handshake_class
            if handshake_class is not None:
                counts[size][handshake_class] = counts[size].get(handshake_class, 0) + 1
    return InitialSizeSweepFigure(counts=counts, reachable=reachable, scanned=scanned)
