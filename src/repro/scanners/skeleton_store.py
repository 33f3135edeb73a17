"""Persistent skeleton-shard store: warm-start campaigns skip generation.

After the columnar kernel (PR 8) and cross-scenario shard reuse (PR 9),
*generation* is the dominant phase of a campaign.  But the phase-1 skeleton
pass is a pure function of a tiny fingerprint: the per-shard RNG stream is
seeded from ``(seed, shard_index)`` alone, and every scenario is a pure
post-RNG transform (standing invariant since PR 5).  Work whose output is
fully determined by a fingerprint need never be redone — so this module
persists the **baseline** (pre-scenario-transform) :class:`SkeletonShard` of
each generation shard on first use and replays it from disk ever after.

Deliberately *scenario-independent*, unlike checkpoints: one cached skeleton
shard serves every scenario, grid, scan backend, worker count and scan shard
size over the same population, because

* shards are stored at generation granularity
  (:data:`~repro.webpki.population.GENERATION_SHARD_SIZE`), the unit the RNG
  stream is actually keyed on — scan shards of any size slice the covering
  generation shards exactly like
  :func:`~repro.webpki.population.deployments_for_range`;
* the cached skeletons are the baseline: scenario transforms are applied
  *after* load, exactly where the shard visit applies them.

The store reuses the checkpoint store's proven durability shape
(:mod:`repro.core.ioutil` carries the shared parser):

* **Content-addressed filenames** embedding a digest of
  ``(seed, size, shard_size, population-config fingerprint, shard_index)``
  (:class:`SkeletonKey`), so one directory can hold shards of several
  populations — a grid whose members carry ``population_overrides`` warms
  one entry per distinct generation config — without ever confusing them.
* **Atomic, self-verifying files**: ``repro-skel/2 <len> <sha256>`` header,
  tmp-file + ``os.replace`` writes, deterministic payload codec
  (:func:`~repro.webpki.skeleton.encode_skeleton_shard`).  A torn, corrupt,
  foreign or stale-format file fails verification, is quarantined (kept as
  evidence, never trusted) and its shard is simply regenerated — the cache
  is an optimisation, never a source of truth.
* **Directory binding**: ``skeletons.json`` records ``(seed, size,
  generation shard size)``; warming a directory for a different population
  is rejected with an actionable error instead of quietly interleaving.  A
  directory bound under an older format tag is simply rebound: its files
  fail verification and are regenerated one by one.

The ``repro-skel/2`` payload is the 16-byte content address, a ``u32``
length and the skeleton codec's bytes, then the issued-leaf annex, all
integers little-endian::

    u32 count                      one record per chain spec, annex order
    count x u32                    leaf DER lengths
    count x 7 u32                  leaf field-size rows
    count x u32                    raw-DEFLATE length of the chain's TLS
                                   payload; 0 unless the QUIC service
                                   delivers the spec
    u8 n, n bytes                  zlib.ZLIB_RUNTIME_VERSION of those lengths
    leaf DERs, concatenated

Because the payload codec is deterministic and python-version independent
(no pickle), the files double as the interchange format the ROADMAP's
multi-host dispatcher ships to remote workers: a host that has the shard
bytes never regenerates, no matter who generated them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import warnings
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.ioutil import (
    SelfVerifyingFormatError,
    atomic_write_bytes,
    atomic_write_text,
    decode_self_verifying,
    encode_self_verifying,
    quarantine_file,
)
from ..webpki.population import (
    GENERATION_SHARD_SIZE,
    PopulationConfig,
    SkeletonShard,
    generate_tranco_list,
)
from ..tls.cert_compression import chain_deflate_size
from ..webpki.skeleton import (
    ChainSpec,
    SkeletonCodecError,
    decode_skeleton_shard,
    encode_skeleton_shard,
    materialize_skeletons,
)
from ..x509.ca import WebPkiHierarchy, default_hierarchy
from ..x509.chain import CertificateChain
from ..x509.issuance import leaf_from_record, leaf_record, leaf_template

#: Skeleton file format tag; bump on any incompatible layout change so old
#: files are quarantined (and regenerated) instead of misparsed.
SKELETON_FORMAT = b"repro-skel/2"

#: The zlib build the stored DEFLATE lengths were measured with.  A reader
#: under another zlib (whose level-9 output may differ in length) ignores
#: them and measures again.
DEFLATE_STAMP = zlib.ZLIB_RUNTIME_VERSION.encode("ascii")

#: Name of the per-directory population metadata file.
STORE_METADATA_FILENAME = "skeletons.json"

#: Subdirectory failed-verification skeleton files are moved into.
QUARANTINE_DIRNAME = "quarantine"

#: Filename suffix of skeleton shard files.
SKELETON_SUFFIX = ".skel"

#: Decoded-shard memo capacity per store.  Scan shards rarely straddle more
#: than two generation shards at a time, so a small window is enough to make
#: sequential range reads decode each file once.
MEMO_CAPACITY = 8


class SkeletonStoreError(RuntimeError):
    """A skeleton cache directory cannot be used for this population."""


#: Process-wide hit/miss counters (all stores), read by the tests.
#: Generation is deterministic, so a "hit" is exactly "generation skipped" —
#: the number the warm-start optimisation exists to maximise.
_CACHE_COUNTERS = {"hits": 0, "misses": 0, "write_errors": 0}


def cache_counters() -> Dict[str, int]:
    """Process-wide ``{"hits", "misses", "write_errors"}`` across all stores."""
    return dict(_CACHE_COUNTERS)


def reset_cache_counters() -> None:
    for name in _CACHE_COUNTERS:
        _CACHE_COUNTERS[name] = 0


#: Per-process store registry: every :class:`ShardTask` naming the same cache
#: directory shares one :class:`SkeletonStore` (and so one decoded-shard
#: memo) — scan shards smaller than the generation shard size straddle
#: generation shards, and without the shared memo each would re-decode its
#: neighbours' files.
_STORES: Dict[str, "SkeletonStore"] = {}


def store_for(directory: str) -> "SkeletonStore":
    """The process-wide :class:`SkeletonStore` of ``directory``."""
    store = _STORES.get(directory)
    if store is None:
        store = _STORES[directory] = SkeletonStore(directory)
    return store


def reset_stores() -> None:
    """Drop per-process stores and their decoded-shard memos.

    Benchmarks call this between passes so a "warm" measurement reads disk,
    not memory; tests use it to isolate directories reused across cases.
    """
    _STORES.clear()


def population_fingerprint(config: PopulationConfig) -> str:
    """Fingerprint of every generation-affecting knob of ``config``.

    Covers all :class:`PopulationConfig` fields *except* ``scenario``:
    scenarios are post-RNG transforms and must not fragment the cache, while
    ``population_overrides`` (which rewrite fraction fields *before*
    generation and therefore change the RNG outcomes) land in the fields this
    hash covers and get their own entries.  Stable across processes and
    hosts — the canonical form is a sorted JSON object of field reprs.
    """
    knobs = {
        field.name: repr(getattr(config, field.name))
        for field in dataclasses.fields(config)
        if field.name != "scenario"
    }
    canonical = json.dumps(knobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SkeletonKey:
    """The content address of one cached generation shard."""

    seed: int
    size: int
    #: Size of the stored shard — always :data:`GENERATION_SHARD_SIZE`, the
    #: granularity the RNG stream is keyed on.  Part of the address so a
    #: future re-sharding of generation invalidates rather than misreads.
    shard_size: int
    population_fingerprint: str
    index: int

    def digest(self) -> str:
        material = (
            f"{self.seed}|{self.size}|{self.shard_size}|"
            f"{self.population_fingerprint}|{self.index}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def filename(self) -> str:
        return f"skel-{self.index:06d}-{self.digest()}{SKELETON_SUFFIX}"

    def expected_length(self) -> int:
        """Number of skeletons the addressed generation shard must hold."""
        start = self.index * self.shard_size
        return max(0, min(self.size, start + self.shard_size) - start)

    @classmethod
    def for_config(cls, config: PopulationConfig, index: int) -> "SkeletonKey":
        return cls(
            seed=config.seed,
            size=config.size,
            shard_size=GENERATION_SHARD_SIZE,
            population_fingerprint=population_fingerprint(config),
            index=index,
        )


#: ``ChainSpec → CertificateChain`` — the materialisation cache shape shared
#: with :meth:`~repro.webpki.skeleton.DeploymentSkeleton.materialize`.
ChainCache = Dict[ChainSpec, CertificateChain]


def _iter_specs(shard: SkeletonShard) -> Iterator[Tuple[ChainSpec, bool]]:
    """Every chain spec of a shard, in the deterministic annex order.

    Each spec comes with whether the shard's QUIC service delivers it: the
    HTTPS spec of a QUIC skeleton that shares it, or the rotated QUIC spec.
    """
    for skeleton in shard.skeletons:
        quic = skeleton.supports_quic
        if skeleton.https_spec is not None:
            yield skeleton.https_spec, quic and skeleton.quic_shares_https
        if skeleton.quic_spec is not None:
            yield skeleton.quic_spec, quic


def _encode_leaf_annex(
    shard: SkeletonShard,
    chain_cache: ChainCache,
    hierarchy: WebPkiHierarchy,
) -> bytes:
    """Encode the issued-leaf annex: one leaf record per chain spec.

    Skeleton decode alone only removes ~15% of generation cost — issuance
    dominates — so the store also carries each spec's issued *leaf* (the only
    per-domain certificate; every parent is a hierarchy or bloat-pool
    singleton recoverable from the spec).  Missing chains are issued here, so
    encoding from a cold run reuses the chains the campaign materialises
    anyway when the caller shares ``chain_cache``.

    Each QUIC-served chain's raw-DEFLATE length is stored too (0 for every
    other spec).  It is measured here through the chain's own memo, so a cold
    run pays the zlib pass its scan would pay anyway, on the chain instance
    the scan then reads, and a warm run pays none.
    """
    der_lens: List[int] = []
    rows: List[int] = []
    deflate_lens: List[int] = []
    ders: List[bytes] = []
    for spec, quic_served in _iter_specs(shard):
        chain = chain_cache.get(spec)
        if chain is None:
            chain = chain_cache[spec] = spec.materialize(hierarchy)
        der, row = leaf_record(chain.leaf)
        der_lens.append(len(der))
        rows.extend(row)
        deflate_lens.append(chain_deflate_size(chain) if quic_served else 0)
        ders.append(der)
    count = len(ders)
    return b"".join(
        (
            struct.pack("<I", count),
            struct.pack(f"<{count}I", *der_lens),
            struct.pack(f"<{7 * count}I", *rows),
            struct.pack(f"<{count}I", *deflate_lens),
            struct.pack("<B", len(DEFLATE_STAMP)),
            DEFLATE_STAMP,
            *ders,
        )
    )


def _decode_leaf_annex(
    payload: bytes,
    pos: int,
    shard: SkeletonShard,
    hierarchy: WebPkiHierarchy,
) -> ChainCache:
    """Rebuild the shard's chain cache from its issued-leaf annex.

    A stored DEFLATE length seeds its chain's ``_deflate_size`` memo (see
    :func:`~repro.tls.cert_compression.chain_deflate_size`) only when the
    annex was written under the running zlib; otherwise the scan measures
    the chain again.
    """
    specs = [spec for spec, _ in _iter_specs(shard)]
    (count,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if count != len(specs):
        raise SkeletonStoreError(
            f"leaf annex carries {count} records for {len(specs)} chain specs"
        )
    der_lens = struct.unpack_from(f"<{count}I", payload, pos)
    pos += 4 * count
    rows = struct.unpack_from(f"<{7 * count}I", payload, pos)
    pos += 28 * count
    deflate_lens = struct.unpack_from(f"<{count}I", payload, pos)
    pos += 4 * count
    stamp_end = pos + 1 + payload[pos]
    if payload[pos + 1 : stamp_end] != DEFLATE_STAMP:
        deflate_lens = (0,) * count
    der_bounds = list(accumulate(der_lens, initial=stamp_end))
    if der_bounds[-1] != len(payload):
        raise SkeletonStoreError("leaf annex is truncated or has trailing bytes")
    profiles = hierarchy.profiles
    cache: ChainCache = {}
    # Per-(profile, key algorithm) template + delivered-chain memo, and a
    # CertificateChain constructor bypass for the overwhelmingly common
    # no-bloat/no-trim spec: this loop rebuilds every issued chain of a
    # shard and is the warm path's largest single cost.
    templates: Dict[Tuple[str, object], tuple] = {}
    chain_new = CertificateChain.__new__
    set_field = object.__setattr__
    for spec, start, end, row, deflate_len in zip(
        specs,
        der_bounds,
        islice(der_bounds, 1, None),
        range(0, 7 * count, 7),
        deflate_lens,
    ):
        entry = templates.get((spec.ca_profile, spec.key_algorithm))
        if entry is None:
            profile = profiles[spec.ca_profile]
            entry = templates[(spec.ca_profile, spec.key_algorithm)] = (
                leaf_template(
                    profile.issuer, spec.key_algorithm or profile.leaf_key_algorithm
                ),
                profile.delivered_chain,
            )
        template, delivered = entry
        leaf = leaf_from_record(template, spec, payload[start:end], rows[row : row + 7])
        if spec.bloat_extras or spec.trim_to is not None:
            chain = spec.assemble(leaf, hierarchy)
        else:
            chain = chain_new(CertificateChain)
            set_field(chain, "certificates", (leaf,) + delivered)
        if deflate_len:
            set_field(chain, "_deflate_size", deflate_len)
        cache[spec] = chain
    return cache


#: Length of the content-address digest embedded at the start of every
#: payload (hex prefix of :meth:`SkeletonKey.digest`).  The filename already
#: carries the address, but filenames can be forged by a rename — a foreign
#: shard of the *same shape* (index, rank range, length) copied under the
#: expected name would otherwise pass every structural check.  Embedding the
#: address in the digested payload makes the file self-identifying.
KEY_DIGEST_LENGTH = 16


def encode_skeleton_file(
    shard: SkeletonShard,
    chain_cache: Optional[ChainCache] = None,
    hierarchy: Optional[WebPkiHierarchy] = None,
    key: Optional[SkeletonKey] = None,
) -> bytes:
    """Serialise one generation shard (skeletons + leaf annex), with header.

    ``chain_cache`` supplies already-materialised chains; specs it is missing
    are issued (into it) here.  Passing ``None`` issues everything fresh.
    ``key`` embeds the shard's content address into the payload (always set
    on the store's write path); without one a placeholder is stored and the
    file will fail any keyed load.
    """
    hierarchy = hierarchy or default_hierarchy()
    if chain_cache is None:
        chain_cache = {}
    address = (key.digest() if key is not None else "0" * KEY_DIGEST_LENGTH).encode(
        "ascii"
    )
    skeleton_bytes = encode_skeleton_shard(shard)
    annex = _encode_leaf_annex(shard, chain_cache, hierarchy)
    payload = (
        address + struct.pack("<I", len(skeleton_bytes)) + skeleton_bytes + annex
    )
    return encode_self_verifying(SKELETON_FORMAT, payload)


def decode_skeleton_file(
    data: bytes, populate: bool = True, key: Optional[SkeletonKey] = None
) -> Tuple[SkeletonShard, Optional[ChainCache]]:
    """Verify and deserialise skeleton file bytes.

    With ``populate=True`` the issued-leaf annex is decoded into a chain
    cache (the warm path); ``populate=False`` skips the annex entirely, so
    skeleton-only consumers (the sweep discovery pass) stay issuance-free.
    A ``key`` additionally checks the payload's embedded content address, so
    a foreign file renamed to the expected filename is rejected even when it
    is internally consistent.

    Raises :class:`SkeletonStoreError` on any defect — bad header, truncated
    write, digest mismatch, stale format, foreign content address or a
    payload that does not decode.  Callers quarantine on failure.
    """
    try:
        payload = decode_self_verifying(SKELETON_FORMAT, data, label="skeleton shard")
    except SelfVerifyingFormatError as error:
        raise SkeletonStoreError(str(error)) from error
    if key is not None:
        stored = payload[:KEY_DIGEST_LENGTH].decode("ascii", errors="replace")
        if stored != key.digest():
            raise SkeletonStoreError(
                f"skeleton shard carries content address {stored!r}, expected "
                f"{key.digest()!r} — a foreign or renamed file"
            )
    try:
        base = KEY_DIGEST_LENGTH
        (skeleton_length,) = struct.unpack_from("<I", payload, base)
        shard = decode_skeleton_shard(payload[base + 4 : base + 4 + skeleton_length])
        if not populate:
            return shard, None
        cache = _decode_leaf_annex(
            payload, base + 4 + skeleton_length, shard, default_hierarchy()
        )
    except SkeletonStoreError:
        raise
    except (SkeletonCodecError, struct.error, IndexError, OverflowError, KeyError) as error:
        raise SkeletonStoreError(f"skeleton shard payload is invalid: {error}") from error
    return shard, cache


class SkeletonStore:
    """One directory of cached baseline skeleton shards."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            raise SkeletonStoreError(
                f"skeleton cache directory {directory!r} cannot be created ({error})"
            ) from error
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        # Decoded-shard memo: scan shards smaller than the generation shard
        # size straddle generation shards, so consecutive range reads would
        # otherwise decode the same file repeatedly.
        self._memo: "OrderedDict[str, Tuple[SkeletonShard, Optional[ChainCache]]]" = (
            OrderedDict()
        )

    def reset_memo(self) -> None:
        """Drop in-process decoded shards.

        Benchmarks call this between measurements so a "warm" number
        exercises the disk decode path rather than a memory hit.
        """
        self._memo.clear()

    def _memoize(
        self,
        digest: str,
        shard: SkeletonShard,
        cache: Optional[ChainCache],
    ) -> None:
        existing = self._memo.get(digest)
        if existing is not None and existing[1] is not None and cache is None:
            cache = existing[1]  # never downgrade a populated entry
        self._memo[digest] = (shard, cache)
        self._memo.move_to_end(digest)
        while len(self._memo) > MEMO_CAPACITY:
            self._memo.popitem(last=False)

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: SkeletonKey) -> str:
        return os.path.join(self.directory, key.filename())

    @property
    def quarantine_directory(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIRNAME)

    @property
    def metadata_path(self) -> str:
        return os.path.join(self.directory, STORE_METADATA_FILENAME)

    # -- population binding ----------------------------------------------------

    def bind(self, config: PopulationConfig) -> None:
        """Claim this directory for one ``(seed, size)`` population (or verify).

        The binding pins what every entry in the directory must share; the
        population-config fingerprint stays per-file (content-addressed), so
        one directory serves a grid whose members override generation
        fractions.  A population mismatch is an actionable error, not a
        silent miss: pointing ``--skeleton-cache`` at a directory warmed for a
        different population is almost certainly an operator mistake.  A
        directory bound under another file format only needs its files
        rewritten, so it is rebound: each old file then fails verification,
        is quarantined and is regenerated on first use.
        """
        expected = {
            "format": SKELETON_FORMAT.decode("ascii"),
            "seed": config.seed,
            "size": config.size,
            "generation_shard_size": GENERATION_SHARD_SIZE,
        }
        if os.path.exists(self.metadata_path):
            try:
                with open(self.metadata_path, "r", encoding="utf-8") as handle:
                    found = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise SkeletonStoreError(
                    f"skeleton cache directory {self.directory!r} has an unreadable "
                    f"{STORE_METADATA_FILENAME} ({error}); use a fresh directory"
                ) from error
            mismatched = sorted(
                name
                for name, value in expected.items()
                if name != "format" and found.get(name) != value
            )
            if mismatched:
                described = ", ".join(
                    f"{name}: {found.get(name)!r} != {expected[name]!r}"
                    for name in mismatched
                )
                raise SkeletonStoreError(
                    f"skeleton cache directory {self.directory!r} was warmed for a "
                    f"different population ({described}); point --skeleton-cache at "
                    "a fresh directory or rerun with the original parameters"
                )
            if found.get("format") == expected["format"]:
                return
        try:
            atomic_write_text(
                self.metadata_path,
                json.dumps(expected, indent=2, sort_keys=True) + "\n",
            )
        except OSError as error:
            raise SkeletonStoreError(
                f"skeleton cache directory {self.directory!r} cannot be "
                f"claimed ({error})"
            ) from error

    # -- save/load -------------------------------------------------------------

    def save(
        self,
        key: SkeletonKey,
        shard: SkeletonShard,
        chain_cache: Optional[ChainCache] = None,
    ) -> str:
        """Atomically persist one generation shard; returns the file path.

        No attempt bookkeeping is needed (unlike checkpoints): shard bytes
        are a deterministic function of the key, so concurrent or repeated
        writes race towards identical content.
        """
        path = self.path_for(key)
        atomic_write_bytes(path, encode_skeleton_file(shard, chain_cache, key=key))
        return path

    def load(
        self, key: SkeletonKey, populate: bool = True
    ) -> Optional[Tuple[SkeletonShard, Optional[ChainCache]]]:
        """Load one generation shard (and, if ``populate``, its chain cache).

        Returns ``None`` — after quarantining the file — on any defect: bad
        header, truncation, corruption, stale format, a foreign content
        address, or a decoded shard whose index / rank range / length does
        not match the key (a renamed or foreign file).  The caller then
        regenerates the shard.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        try:
            shard, cache = decode_skeleton_file(data, populate=populate, key=key)
        except SkeletonStoreError:
            self.quarantine(path)
            return None
        if (
            shard.index != key.index
            or shard.start_rank != key.index * key.shard_size + 1
            or len(shard.skeletons) != key.expected_length()
        ):
            self.quarantine(path)
            return None
        return shard, cache

    def quarantine(self, path: str) -> str:
        """Move a failed-verification file into ``quarantine/`` (kept, not trusted)."""
        return quarantine_file(path, self.quarantine_directory)

    def load_or_generate(
        self,
        config: PopulationConfig,
        shard_index: int,
        tranco=None,
        populate: bool = True,
    ) -> Tuple[SkeletonShard, Optional[ChainCache]]:
        """One generation shard of the *baseline* population, cache-first.

        ``config`` must be scenario-free (the caller strips scenarios before
        consulting the store and applies transforms after); a scenario here
        would poison the cache for every other consumer.

        With ``populate=True`` a hit also returns the shard's chain cache
        (rebuilt from the issued-leaf annex) and a miss issues every spec's
        chain, stores it, and returns the freshly built cache — so the warm
        path never issues and the cold path issues exactly once, sharing the
        chains with the campaign that triggered generation.  With
        ``populate=False`` (skeleton-only consumers: the sweep discovery
        pass) the annex is neither decoded nor — on a miss — produced: the
        store reads through without writing, because writing would force the
        issuance the skeleton pass exists to skip.

        The ranked list is built only on a miss (``tranco`` lets a caller
        that already holds it skip even that): a warm hit reads every domain
        name from the stored skeletons.  A write that fails with ``OSError``
        (full disk, read-only or permission-denied directory) returns the
        freshly built shard uncached, counted as ``write_errors`` in
        :func:`cache_counters` with one warning per store.
        """
        if config.scenario is not None and not config.scenario.is_identity:
            raise SkeletonStoreError(
                "skeleton store caches baseline shards only; strip the scenario "
                "from the config and apply its transform after load"
            )
        from ..webpki.population import _generate_shard_skeletons

        key = SkeletonKey.for_config(config, shard_index)
        memoed = self._memo.get(key.digest())
        if memoed is not None and (memoed[1] is not None or not populate):
            self._memo.move_to_end(key.digest())
            self.hits += 1
            _CACHE_COUNTERS["hits"] += 1
            return (memoed[0], memoed[1]) if populate else (memoed[0], None)
        loaded = self.load(key, populate=populate)
        if loaded is not None:
            self.hits += 1
            _CACHE_COUNTERS["hits"] += 1
            self._memoize(key.digest(), loaded[0], loaded[1])
            return loaded
        self.misses += 1
        _CACHE_COUNTERS["misses"] += 1
        tranco = tranco or generate_tranco_list(config.size, seed=config.seed)
        shard_start = shard_index * GENERATION_SHARD_SIZE
        domains = tranco.domains[shard_start : shard_start + GENERATION_SHARD_SIZE]
        base = config if config.scenario is None else dataclasses.replace(
            config, scenario=None
        )
        skeletons = _generate_shard_skeletons(base, domains, shard_index, shard_start + 1)
        shard = SkeletonShard(
            index=shard_index, start_rank=shard_start + 1, skeletons=tuple(skeletons)
        )
        if not populate:
            self._memoize(key.digest(), shard, None)
            return shard, None
        chain_cache: ChainCache = {}
        try:
            self.save(key, shard, chain_cache)
        except OSError as error:
            # A full, read-only or permission-denied disk costs the cache,
            # never the campaign: the shard and its chains are already built.
            self.write_errors += 1
            _CACHE_COUNTERS["write_errors"] += 1
            if self.write_errors == 1:
                warnings.warn(
                    f"skeleton cache directory {self.directory!r} is not writable "
                    f"({error}); continuing without caching new shards",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._memoize(key.digest(), shard, chain_cache)
        return shard, chain_cache

    # -- inspection / maintenance ---------------------------------------------

    def entries(self) -> List[str]:
        """Skeleton filenames currently in the directory (sorted)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(name for name in names if name.endswith(SKELETON_SUFFIX))

    def stats(self) -> Dict[str, object]:
        """Inspection summary: entry/byte/quarantine counts plus metadata."""
        entries = self.entries()
        total_bytes = 0
        for name in entries:
            try:
                total_bytes += os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                pass
        quarantined = 0
        if os.path.isdir(self.quarantine_directory):
            quarantined = len(os.listdir(self.quarantine_directory))
        metadata: Optional[Dict] = None
        if os.path.exists(self.metadata_path):
            try:
                with open(self.metadata_path, "r", encoding="utf-8") as handle:
                    metadata = json.load(handle)
            except (OSError, json.JSONDecodeError):
                metadata = None
        return {
            "directory": self.directory,
            "entries": len(entries),
            "bytes": total_bytes,
            "quarantined": quarantined,
            "metadata": metadata,
        }

    def gc(self, config: Optional[PopulationConfig] = None) -> Dict[str, int]:
        """Drop quarantined files and (given ``config``) stale entries.

        With a ``config``, every skeleton file whose name is not one of the
        config's expected content addresses — a different population's
        leftovers, a renamed file, an aborted experiment — is deleted; the
        quarantine directory is always emptied.  Returns removal counts.
        """
        removed = {"stale": 0, "quarantined": 0}
        if config is not None:
            expected = {
                SkeletonKey.for_config(config, index).filename()
                for index in range(shard_count(config.size))
            }
            for name in self.entries():
                if name not in expected:
                    try:
                        os.unlink(os.path.join(self.directory, name))
                        removed["stale"] += 1
                    except OSError:
                        pass
        if os.path.isdir(self.quarantine_directory):
            for name in os.listdir(self.quarantine_directory):
                try:
                    os.unlink(os.path.join(self.quarantine_directory, name))
                    removed["quarantined"] += 1
                except OSError:
                    pass
            try:
                os.rmdir(self.quarantine_directory)
            except OSError:
                pass
        return removed


def shard_count(size: int) -> int:
    """Number of generation shards of a ``size``-domain population."""
    return -(-size // GENERATION_SHARD_SIZE)


def warm(
    store: "SkeletonStore | str",
    config: PopulationConfig,
    shard_indices: Optional[Iterable[int]] = None,
) -> Tuple[int, int]:
    """Pre-populate a cache with the baseline shards of ``config``.

    Returns ``(hits, misses)`` over the warmed indices — a second warm run
    reports all hits.  Used by ``repro skeletons --warm`` and tests.
    """
    if isinstance(store, str):
        store = SkeletonStore(store)
    base = (
        config
        if config.scenario is None
        else dataclasses.replace(config, scenario=None)
    )
    store.bind(base)
    hits = misses = 0
    indices = (
        range(shard_count(base.size)) if shard_indices is None else shard_indices
    )
    for index in indices:
        before = store.hits
        store.load_or_generate(base, index)
        # Warming reads nothing back, and memoised shards would keep every
        # chain alive for each later garbage collection to walk.
        store.reset_memo()
        if store.hits > before:
            hits += 1
        else:
            misses += 1
    return hits, misses


def _covering_shards(start: int, stop: int) -> range:
    """Generation-shard indices covering the rank range ``[start, stop)``."""
    first = start // GENERATION_SHARD_SIZE
    last = max(first, (stop - 1) // GENERATION_SHARD_SIZE) if stop > start else first
    return range(first, last + 1)


def skeletons_for_range(
    store: "SkeletonStore | str",
    config: PopulationConfig,
    start: int,
    stop: int,
    tranco=None,
    chain_cache: Optional[ChainCache] = None,
):
    """Cache-first counterpart of ``deployments_for_range(..., skeleton=True)``.

    Loads (or generates and caches) the covering baseline generation shards,
    slices ``[start, stop)`` exactly like
    :func:`~repro.webpki.population.deployments_for_range`, then applies the
    config's scenario transform to the slice — the same transform-after-
    baseline order the shard visit uses, so results are byte-identical
    to cache-free generation.

    Passing ``chain_cache`` additionally decodes the covering shards'
    issued-leaf annexes into it (a shard visit seeds its shared spec→chain
    cache this way, so member-scenario materialisation skips issuance for
    every untouched spec).
    """
    if isinstance(store, str):
        store = SkeletonStore(store)
    if not 0 <= start <= stop <= config.size:
        raise ValueError(f"range [{start}, {stop}) out of bounds for size {config.size}")
    base = (
        config
        if config.scenario is None
        else dataclasses.replace(config, scenario=None)
    )
    store.bind(base)
    skeletons: List = []
    for shard_index in _covering_shards(start, stop):
        shard, cache = store.load_or_generate(
            base, shard_index, tranco=tranco, populate=chain_cache is not None
        )
        if cache and chain_cache is not None:
            chain_cache.update(cache)
        shard_start = shard_index * GENERATION_SHARD_SIZE
        skeletons.extend(
            shard.skeletons[max(start - shard_start, 0) : max(stop - shard_start, 0)]
        )
    scenario = config.scenario
    if scenario is not None and not scenario.is_identity:
        skeletons = list(scenario.transform_skeletons(skeletons))
    return skeletons


def deployments_for_range(
    store: "SkeletonStore | str",
    config: PopulationConfig,
    start: int,
    stop: int,
    tranco=None,
    chain_cache: Optional[ChainCache] = None,
):
    """Cache-first counterpart of ``deployments_for_range`` (materialised).

    The covering shards' issued-leaf annexes seed the chain cache, so a warm
    call materialises without issuing a single certificate; scenario
    transforms are applied to the skeleton slice first and hit the cache
    through spec equality (untouched specs) or the trim-aware fallback.  A
    caller-supplied ``chain_cache`` is used and extended in place.
    """
    if chain_cache is None:
        chain_cache = {}
    skeletons = skeletons_for_range(
        store, config, start, stop, tranco=tranco, chain_cache=chain_cache
    )
    return materialize_skeletons(skeletons, default_hierarchy(), chain_cache)


def generate_population_cached(
    store: "SkeletonStore | str", config: Optional[PopulationConfig] = None
):
    """Cache-first counterpart of
    :func:`~repro.webpki.population.generate_population`.

    Materialises the full population through the store — warm directories
    skip every RNG roll and every certificate issuance — and returns an
    :class:`~repro.webpki.population.InternetPopulation` byte-identical to
    the eager generator's.
    """
    from ..webpki.population import InternetPopulation

    config = config or PopulationConfig()
    tranco = generate_tranco_list(config.size, seed=config.seed)
    deployments = deployments_for_range(store, config, 0, config.size, tranco=tranco)
    return InternetPopulation(config=config, tranco=tranco, deployments=deployments)
