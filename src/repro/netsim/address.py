"""IPv4 addresses and prefixes for the simulated Internet."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class IPv4Address:
    """A 32-bit IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 32:
            raise ValueError(f"not a valid IPv4 address value: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def octets(self) -> tuple[int, int, int, int]:
        return (
            (self.value >> 24) & 0xFF,
            (self.value >> 16) & 0xFF,
            (self.value >> 8) & 0xFF,
            self.value & 0xFF,
        )

    @property
    def host_octet(self) -> int:
        """The last octet; the paper's Figure 11 x-axis."""
        return self.value & 0xFF

    def __str__(self) -> str:
        return ".".join(str(o) for o in self.octets)


@dataclass(frozen=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``157.240.0.0/24``."""

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"invalid prefix length: {self.length}")
        if self.network.value & (self.host_mask()) != 0:
            raise ValueError("network address has host bits set")

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        network_text, _, length_text = text.partition("/")
        return cls(IPv4Address.parse(network_text), int(length_text or "32"))

    def host_mask(self) -> int:
        return (1 << (32 - self.length)) - 1

    def netmask(self) -> int:
        return ((1 << 32) - 1) ^ self.host_mask()

    def contains(self, address: IPv4Address) -> bool:
        return (address.value & self.netmask()) == self.network.value

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    def address_at(self, offset: int) -> IPv4Address:
        if not 0 <= offset < self.num_addresses:
            raise ValueError(f"offset {offset} outside /{self.length} prefix")
        return IPv4Address(self.network.value + offset)

    def iter_hosts(self) -> Iterator[IPv4Address]:
        """Iterate all addresses in the prefix (including network/broadcast)."""
        for offset in range(self.num_addresses):
            yield IPv4Address(self.network.value + offset)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"
