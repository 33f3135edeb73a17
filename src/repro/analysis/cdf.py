"""Empirical cumulative distribution functions (most paper figures are CDFs).

:class:`EmpiricalCdf` is count-backed: it stores the sorted *unique* values
plus their cumulative multiplicities instead of one entry per sample.  Chain
sizes, field sizes and amplification factors repeat heavily across millions of
domains, so the streaming reducer's ``value -> multiplicity`` accumulators
(:meth:`EmpiricalCdf.from_counts`) flow into report rendering without ever
materialising a million-element value tuple — quantiles, probabilities and
plot points are answered from the cumulative counts directly, byte-identically
to the expanded form.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, List, Mapping, Tuple


class EmpiricalCdf:
    """An empirical CDF over a sample of values (count-backed storage)."""

    __slots__ = ("unique_values", "cumulative_counts")

    def __init__(self, values: Iterable[float] = ()) -> None:
        ordered = sorted(float(v) for v in values)
        unique: List[float] = []
        cumulative: List[int] = []
        for index, value in enumerate(ordered):
            if not unique or value != unique[-1]:
                unique.append(value)
                cumulative.append(index + 1)
            else:
                cumulative[-1] = index + 1
        self.unique_values: Tuple[float, ...] = tuple(unique)
        self.cumulative_counts: Tuple[int, ...] = tuple(cumulative)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalCdf":
        return cls(values)

    @classmethod
    def from_counts(cls, counts: Mapping[float, int]) -> "EmpiricalCdf":
        """Build the CDF straight from a ``value -> multiplicity`` accumulator.

        Equals ``from_values`` over the expanded multiset, but the multiset is
        never expanded: streaming count-accumulators become a CDF in
        O(distinct values), and giant-campaign reports render without the
        value-tuple materialisation.
        """
        cdf = cls.__new__(cls)
        normalised: dict = {}
        for value, count in counts.items():
            if count < 0:
                # A negative multiplicity is upstream corruption (e.g. an
                # under-subtracting reducer) — surface it, don't render it.
                raise ValueError(f"negative multiplicity {count} for value {value!r}")
            if count == 0:
                # Zero-multiplicity entries expand to nothing; keeping them
                # would leave a CDF that reports non-empty with no samples.
                continue
            value = float(value)
            normalised[value] = normalised.get(value, 0) + count
        unique = tuple(sorted(normalised))
        cdf.unique_values = unique
        cdf.cumulative_counts = tuple(
            accumulate(normalised[value] for value in unique)
        )
        return cdf

    # -- sample-level view -------------------------------------------------------

    def value_at(self, index: int) -> float:
        """The ``index``-th (0-based) element of the sorted sample."""
        return self.unique_values[bisect_right(self.cumulative_counts, index)]

    def __len__(self) -> int:
        return self.cumulative_counts[-1] if self.cumulative_counts else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalCdf):
            return NotImplemented
        return (
            self.unique_values == other.unique_values
            and self.cumulative_counts == other.cumulative_counts
        )

    @property
    def is_empty(self) -> bool:
        return not self.unique_values

    # -- evaluation -------------------------------------------------------------

    def probability_at(self, x: float) -> float:
        """P(X <= x)."""
        if self.is_empty:
            return 0.0
        position = bisect_right(self.unique_values, x)
        below = self.cumulative_counts[position - 1] if position else 0
        return below / len(self)

    def quantile(self, q: float) -> float:
        """Smallest x with P(X <= x) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.is_empty:
            return 0.0
        total = len(self)
        index = min(max(int(q * total + 0.999999) - 1, 0), total - 1)
        return self.value_at(index)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    # -- plotting helpers --------------------------------------------------------

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """(x, P(X <= x)) pairs, downsampled for rendering."""
        if self.is_empty:
            return []
        total = len(self)
        step = max(1, total // max_points)
        points = []
        for index in range(0, total, step):
            points.append((self.value_at(index), (index + 1) / total))
        if points[-1][1] != 1.0:
            points.append((self.unique_values[-1], 1.0))
        return points
