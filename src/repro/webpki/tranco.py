"""Tranco-like ranked domain list generation.

The paper seeds its scans with the Tranco 1M list of September 10, 2022.  The
list itself cannot be downloaded offline, and the literal names do not matter
for any result — only the rank structure (for the Appendix D rank-group
analyses) and name-length diversity (certificate subject/SAN sizes) do.  This
module deterministically generates a ranked list with realistic name shapes.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple

_SYLLABLES = (
    "an", "ber", "cor", "dex", "el", "fin", "gra", "hub", "in", "jor", "kan", "lum",
    "mar", "net", "or", "pix", "qua", "ria", "sol", "tek", "ul", "ver", "wav", "xen",
    "yon", "zet", "blue", "swift", "cloud", "data", "shop", "media", "news", "play",
    "soft", "trade", "travel", "health", "bank", "mail", "photo", "video", "game",
    "music", "book", "food", "auto", "home", "sport", "tech",
)

_TLDS_WEIGHTED = (
    ("com", 48), ("org", 9), ("net", 8), ("de", 4), ("ru", 4), ("io", 3), ("co", 3),
    ("uk", 3), ("jp", 2), ("fr", 2), ("br", 2), ("in", 2), ("it", 2), ("nl", 1),
    ("pl", 1), ("es", 1), ("ca", 1), ("au", 1), ("info", 1), ("edu", 1), ("gov", 1),
)


@dataclass(frozen=True)
class TrancoList:
    """A ranked list of domain names; rank 1 is the most popular."""

    domains: Tuple[str, ...]


#: ``random.choices`` draws ``bisect(cum_weights, random() * total, 0, n - 1)``;
#: precomputing the cumulative weights keeps exactly that one draw per pick
#: (the same idiom as :mod:`repro.webpki.providers`).
_SYLLABLE_COUNTS = (1, 2, 3, 4)
_SYLLABLE_CUM_WEIGHTS = tuple(accumulate((10, 55, 30, 5)))
_TLDS = tuple(tld for tld, _ in _TLDS_WEIGHTED)
_TLD_CUM_WEIGHTS = tuple(accumulate(weight for _, weight in _TLDS_WEIGHTED))


def _weighted_pick(rng: random.Random, population: Sequence, cum_weights: Sequence[int]):
    """``rng.choices(population, cum_weights=cum_weights)[0]``, draw for draw."""
    total = cum_weights[-1] + 0.0
    return population[bisect(cum_weights, rng.random() * total, 0, len(population) - 1)]


def _random_label(rng: random.Random) -> str:
    syllable_count = _weighted_pick(rng, _SYLLABLE_COUNTS, _SYLLABLE_CUM_WEIGHTS)
    label = "".join([rng.choice(_SYLLABLES) for _ in range(syllable_count)])
    if rng.random() < 0.08:
        label += str(rng.randint(1, 999))
    if rng.random() < 0.05:
        label = label[: max(3, len(label) // 2)] + "-" + label[len(label) // 2 :]
    return label


def _random_tld(rng: random.Random) -> str:
    return _weighted_pick(rng, _TLDS, _TLD_CUM_WEIGHTS)


def generate_tranco_list(size: int, seed: int = 2022) -> TrancoList:
    """Generate ``size`` unique ranked domain names deterministically.

    Memoized process-wide (the list is immutable and a pure function of its
    arguments): shard regeneration — `generate_shard`, the discovery pass, the
    per-worker `deployments_for_range` — asks for the same ranked list over
    and over, and a 1M-name list takes seconds to build.  The thin wrapper
    normalises positional and keyword ``seed`` calls onto one cache entry.
    """
    return _generate_tranco_list(size, seed)


@lru_cache(maxsize=4)
def _generate_tranco_list(size: int, seed: int) -> TrancoList:
    if size <= 0:
        raise ValueError("the list size must be positive")
    rng = random.Random(f"tranco:{seed}")
    seen = set()
    domains: List[str] = []
    while len(domains) < size:
        name = f"{_random_label(rng)}.{_random_tld(rng)}"
        if name in seen:
            name = f"{_random_label(rng)}-{len(domains)}.{_random_tld(rng)}"
        if name in seen:
            continue
        seen.add(name)
        domains.append(name)
    return TrancoList(tuple(domains))
