"""Server-side anti-amplification accounting (RFC 9000 §8.1, RFC 9002 §6.2.2.1).

Until a client's address is validated (by receiving a packet that proves a
round trip, or a valid Retry token), the server must not send more than three
times the number of bytes it has received from that address.  Padding and
retransmitted bytes count against the limit.

The tracker also supports the two non-compliant accounting modes the paper
observed in the wild:

* *exclude_padding*: padding-only datagrams are not charged against the limit
  (the Cloudflare behaviour that produces >3× first flights), and
* *ignore_limit*: the limit is never enforced for retransmissions (the mvfst
  behaviour that produces 28–45× amplification towards spoofed clients).
"""

from __future__ import annotations

from dataclasses import dataclass

#: RFC 9000 §8.1: three times the bytes received.
ANTI_AMPLIFICATION_FACTOR = 3


@dataclass
class AmplificationTracker:
    """Tracks received/sent bytes towards an unvalidated peer address."""

    factor: int = ANTI_AMPLIFICATION_FACTOR
    exclude_padding: bool = False
    ignore_limit: bool = False
    bytes_received: int = 0
    bytes_sent: int = 0
    bytes_sent_unaccounted: int = 0
    address_validated: bool = False

    # -- events ---------------------------------------------------------------

    def on_datagram_received(self, size: int) -> None:
        """Record bytes received from the (still unvalidated) client address."""
        if size < 0:
            raise ValueError("datagram size must be non-negative")
        self.bytes_received += size

    def on_address_validated(self) -> None:
        """Mark the address as validated; the limit no longer applies."""
        self.address_validated = True

    def on_datagram_sent(self, size: int, padding_only: bool = False) -> None:
        """Record bytes sent to the client address."""
        if size < 0:
            raise ValueError("datagram size must be non-negative")
        self.bytes_sent += size
        if self.exclude_padding and padding_only:
            self.bytes_sent_unaccounted += size

    # -- queries --------------------------------------------------------------

    @property
    def accounted_bytes_sent(self) -> int:
        """Bytes this (possibly non-compliant) server counts against the limit."""
        return self.bytes_sent - self.bytes_sent_unaccounted

    @property
    def limit(self) -> int:
        """Current send allowance in bytes."""
        return self.factor * self.bytes_received

    def can_send(self, size: int) -> bool:
        """Whether this server's accounting permits sending ``size`` more bytes."""
        if self.address_validated or self.ignore_limit:
            return True
        return self.accounted_bytes_sent + size <= self.limit
