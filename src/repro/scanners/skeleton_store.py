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

A read returns a :class:`StoredShard` record — the payload's columns, no
per-domain objects — and the store's decoded-shard memo holds records, not
objects.  A miss returns the same shape: it issues every leaf as bytes into
the payload it writes, and the record decodes that payload on first use.
Objects (the :class:`SkeletonShard` and its spec → chain cache) are an
on-demand view of a record, kept once a consumer builds them; the warm
columnar kernel reads the columns directly (:func:`columns_for_range`).

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
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.ioutil import (
    SelfVerifyingFormatError,
    atomic_write_bytes,
    atomic_write_text,
    decode_self_verifying,
    encode_self_verifying,
    quarantine_file,
)
from ..errors import InputError, ReproError
from ..webpki.population import (
    GENERATION_SHARD_SIZE,
    PopulationConfig,
    SkeletonShard,
    _covering_shards,
    generate_shard,
)
from ..tls import cert_compression
from ..webpki.deployment import DomainDeployment
from ..webpki.skeleton import (
    ChainSpec,
    SkeletonCodecError,
    SkeletonColumns,
    decode_skeleton_columns,
    encode_skeleton_shard,
    materialize_skeletons,
)
from ..x509.ca import default_hierarchy
from ..x509.chain import CertificateChain
from ..x509.issuance import issue_leaf_fast, leaf_from_record, leaf_template
from .shard_columns import ChainShape, ShardColumns, spec_chain_shape

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

#: Decoded-record memo capacity per store.  A scan shard of up to
#: ``2 * GENERATION_SHARD_SIZE`` rows (the default scan shard size) covers at
#: most three generation shards, and sequential range reads revisit at most
#: the previous scan shard's last one, so three records make every file
#: decode once per visit.  A wider window only raises peak memory.
MEMO_CAPACITY = 3


class SkeletonStoreError(ReproError, RuntimeError):
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


def _encode_leaf_annex(shard: SkeletonShard) -> bytes:
    """Encode the issued-leaf annex: one leaf record per chain spec.

    Skeleton decode alone only removes ~15% of generation cost — issuance
    dominates — so the store also carries each spec's issued *leaf* (the only
    per-domain certificate; every parent is a hierarchy or bloat-pool
    singleton recoverable from the spec).  Leaves are issued here by the
    byte kernel :func:`~repro.x509.issuance.issue_leaf_fast`: the annex
    needs only each leaf's DER and field-size row, so no certificate or
    chain object is built.

    Each QUIC-served chain's raw-DEFLATE length is stored too (0 for every
    other spec), measured over the payload its chain shape frames around the
    leaf DER (:meth:`~repro.scanners.shard_columns.ChainShape.payload`, the
    bytes :func:`~repro.tls.cert_compression.chain_payload` builds for the
    chain).  A cold run pays here the zlib pass its scan would pay anyway,
    and a warm run pays none.
    """
    profiles = default_hierarchy().profiles
    der_lens: List[int] = []
    rows: List[int] = []
    deflate_lens: List[int] = []
    ders: List[bytes] = []
    for spec, quic_served in _iter_specs(shard):
        profile = profiles[spec.ca_profile]
        template = leaf_template(profile.issuer, spec.key_algorithm or profile.leaf_key_algorithm)
        der, row, _ = issue_leaf_fast(
            template, spec.domain, spec.san_names(), spec.validity_days
        )
        der_lens.append(len(der))
        rows.extend(row)
        if quic_served:
            shape, _ = spec_chain_shape(
                spec.ca_profile, spec.key_algorithm, spec.bloat_extras, spec.trim_to
            )
            deflate_lens.append(cert_compression.deflate_size(shape.payload(der)))
        else:
            deflate_lens.append(0)
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


#: The :class:`StoredShard` slots a decode fills from the payload.
_COLUMN_SLOTS = ("skeleton", "payload", "der_bounds", "rows", "deflate")


class StoredShard:
    """One generation shard as the store holds it: the payload's columns.

    ``skeleton`` holds the skeleton codec's columns
    (:class:`~repro.webpki.skeleton.SkeletonColumns`); the issued-leaf annex
    stays as the payload bytes plus its DER bounds, flattened field-size rows
    and DEFLATE lengths (``None`` when the annex was written under another
    zlib).  No per-domain object is built on decode.

    Objects are an on-demand view of the same record, built on first use and
    then kept: :attr:`shard` (the :class:`SkeletonShard`) and
    :attr:`chain_cache` (spec → chain, rebuilt from the annex), read by the
    object consumers — the object backend, scenario transforms and the sweep
    discovery pass.  The columnar kernel reads :meth:`extend_columns`
    instead and builds neither;
    :meth:`deployment` materialises a single row (stage 5's spoof targets).

    A record saved on a miss (:meth:`SkeletonStore.save`) is shaped like a
    hit: it holds the payload it was saved as and decodes its columns on
    first read of one, so a warm-only writer never decodes.  It differs in
    one view: ``generated`` rows materialise with freshly issued leaves (see
    :meth:`deployment`).  A skeleton-only miss (``populate=False``) carries
    the shard view alone.
    """

    __slots__ = (
        "index", "start_rank", "length", "skeleton", "payload", "der_bounds",
        "rows", "deflate", "generated", "_encoded", "_shard", "_chain_cache",
        "_chain_table_memo", "_rebuild",
    )

    def __init__(
        self, index: int, start_rank: int, length: int, encoded: Optional[bytes] = None
    ) -> None:
        self.index = index
        self.start_rank = start_rank
        self.length = length
        #: Whether this process generated the shard (a saved miss).
        self.generated = encoded is not None
        #: The saved payload whose columns are not decoded yet.
        self._encoded = encoded
        if encoded is None:
            self.skeleton: Optional[SkeletonColumns] = None
            self.payload = b""
            self.der_bounds: Optional[List[int]] = None
            self.rows: Tuple[int, ...] = ()
            self.deflate: Optional[Tuple[int, ...]] = None
        self._shard: Optional[SkeletonShard] = None
        self._chain_cache: Optional[ChainCache] = None
        self._chain_table_memo: Optional[tuple] = None
        self._rebuild: Optional[Callable[[int, ChainSpec], CertificateChain]] = None

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a saved record's columns, decoded
        # from its payload on first read.
        if name not in _COLUMN_SLOTS or self._encoded is None:
            raise AttributeError(name)
        decoded = _read_payload(self._encoded, populate=True)
        self._encoded = None
        for column in _COLUMN_SLOTS:
            setattr(self, column, getattr(decoded, column))
        return getattr(self, name)

    @classmethod
    def of_shard(cls, shard: SkeletonShard) -> "StoredShard":
        """A record holding only a generated shard's skeleton objects."""
        record = cls(shard.index, shard.start_rank, len(shard.skeletons))
        record._shard = shard
        return record

    @property
    def populated(self) -> bool:
        """Whether the record carries the issued-leaf annex (chains are available)."""
        return self._encoded is not None or self.der_bounds is not None

    # -- the object view -------------------------------------------------------

    @property
    def shard(self) -> SkeletonShard:
        if self._shard is None:
            self._shard = self.skeleton.shard()
        return self._shard

    @property
    def chain_cache(self) -> Optional[ChainCache]:
        """Spec → chain for every chain spec (``None`` without the annex).

        A stored DEFLATE length seeds its chain's ``_deflate_size`` memo (see
        :func:`~repro.tls.cert_compression.chain_deflate_size`) only when
        the annex was written under the running zlib; otherwise the scan
        measures the chain again.
        """
        if self._chain_cache is None and self.populated:
            rebuild = self._chain_builder()
            self._chain_cache = {
                spec: rebuild(position, spec)
                for position, (spec, _) in enumerate(_iter_specs(self.shard))
            }
        return self._chain_cache

    def _chain_builder(self) -> Callable[[int, ChainSpec], CertificateChain]:
        """``rebuild(spec position, spec)``: one annex record's chain."""
        if self._rebuild is not None:
            return self._rebuild
        hierarchy = default_hierarchy()
        profiles = hierarchy.profiles
        payload, bounds, rows, deflate = self.payload, self.der_bounds, self.rows, self.deflate
        # Per-(profile, key algorithm) template + delivered-chain memo, and a
        # CertificateChain constructor bypass for the overwhelmingly common
        # no-bloat/no-trim spec.
        templates: Dict[Tuple[str, object], tuple] = {}
        chain_new = CertificateChain.__new__
        set_field = object.__setattr__

        def rebuild(position: int, spec: ChainSpec) -> CertificateChain:
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
            leaf = leaf_from_record(
                template,
                spec,
                payload[bounds[position] : bounds[position + 1]],
                rows[7 * position : 7 * position + 7],
            )
            if spec.bloat_extras or spec.trim_to is not None:
                chain = spec.assemble(leaf, hierarchy)
            else:
                chain = chain_new(CertificateChain)
                set_field(chain, "certificates", (leaf,) + delivered)
            if deflate is not None and deflate[position]:
                set_field(chain, "_deflate_size", deflate[position])
            return chain

        self._rebuild = rebuild
        return rebuild

    def deployment(self, row: int) -> DomainDeployment:
        """Materialise one row (the kernel's stage-5 spoof-target candidates).

        A ``generated`` record issues the row's leaves afresh, with each
        chain's ``_deflate_size`` memo seeded from the DEFLATE column: the
        candidates are pickled to the parent process and into checkpoints,
        and an eager leaf pickles as it is, where a leaf rebuilt from the
        annex would first expand its deferred fields.  Any other record
        materialises through its chain view when one was built, else
        rebuilds the row's chains from the annex.
        """
        if self._chain_cache is not None and not self.generated:
            return self.shard.skeletons[row].materialize(
                default_hierarchy(), self._chain_cache
            )
        skeleton = self.skeleton.skeleton(row)
        build = self._issue_chain if self.generated else self._chain_builder()
        position = self.skeleton.spec_starts[row]
        cache: ChainCache = {}
        for spec in (skeleton.https_spec, skeleton.quic_spec):
            if spec is not None:
                cache[spec] = build(position, spec)
                position += 1
        return skeleton.materialize(default_hierarchy(), cache)

    def _issue_chain(self, position: int, spec: ChainSpec) -> CertificateChain:
        """One annex record's chain, issued eagerly from its spec."""
        chain = spec.materialize(default_hierarchy())
        if self.deflate is not None and self.deflate[position]:
            object.__setattr__(chain, "_deflate_size", self.deflate[position])
        return chain

    # -- the column view -------------------------------------------------------

    def _chain_table(self) -> tuple:
        """Per row its HTTPS/QUIC spec index; per spec its chain shape and
        its leaf's fixed-extension size.  Computed once per record."""
        if self._chain_table_memo is None:
            skeleton = self.skeleton
            shapes: List[ChainShape] = []
            fixed_sizes: List[int] = []
            blob = skeleton.bloat_blob
            cursor = 0
            unbloated: Dict[tuple, Tuple[ChainShape, int]] = {}
            for ca_profile, key_algorithm, trim, bloat in zip(
                skeleton.spec_cas, skeleton.spec_keys, skeleton.spec_trims, skeleton.spec_bloats
            ):
                if bloat:
                    extras = tuple(blob[cursor : cursor + bloat])
                    cursor += bloat
                    entry = spec_chain_shape(ca_profile, key_algorithm, extras, trim or None)
                else:
                    key = (ca_profile, key_algorithm, trim)
                    entry = unbloated.get(key)
                    if entry is None:
                        entry = unbloated[key] = spec_chain_shape(
                            ca_profile, key_algorithm, (), trim or None
                        )
                shapes.append(entry[0])
                fixed_sizes.append(entry[1])
            self._chain_table_memo = (*skeleton.chain_slots(), shapes, fixed_sizes)
        return self._chain_table_memo

    def extend_columns(self, columns: ShardColumns, start: int, stop: int) -> None:
        """Append rows ``[start, stop)`` and the chains they use to ``columns``."""
        skeleton = self.skeleton
        https, quic, shapes, fixed_sizes = self._chain_table()
        first = skeleton.spec_starts[start]
        last = skeleton.spec_starts[stop]
        shift = len(columns.leaf_ders) - first
        rows = slice(start, stop)
        columns.domains += skeleton.domains[rows]
        columns.ranks += skeleton.ranks[rows]
        columns.providers += skeleton.providers[rows]
        columns.categories += skeleton.categories[rows]
        columns.rcodes += skeleton.rcodes[rows]
        columns.addressed += skeleton.flags[rows].translate(_ADDRESS_BIT)
        columns.behaviors += skeleton.behaviors[rows]
        columns.encapsulations += skeleton.encapsulations[rows]
        columns.redirects += skeleton.redirects[rows]
        columns.https += [None if spec is None else spec + shift for spec in https[rows]]
        columns.quic += [None if spec is None else spec + shift for spec in quic[rows]]
        payload, bounds = self.payload, self.der_bounds
        columns.leaf_ders += [
            payload[lo:hi] for lo, hi in zip(bounds[first:last], bounds[first + 1 : last + 1])
        ]
        columns.field_rows += self.rows[7 * first : 7 * last]
        # The SAN byte share as san_byte_share computes it for a deferred
        # leaf: its extensions total minus the template's fixed extensions,
        # over its size.
        columns.san_shares += [
            (extensions - fixed) / size if size else 0.0
            for extensions, fixed, size in zip(
                self.rows[7 * first + 3 : 7 * last : 7],
                fixed_sizes[first:last],
                self.rows[7 * first + 6 : 7 * last : 7],
            )
        ]
        columns.shapes += shapes[first:last]
        columns.deflate_lens += (
            self.deflate[first:last] if self.deflate is not None else [0] * (last - first)
        )


#: ``bytes.translate`` table: a row's flag byte -> 1 when it has an address.
_ADDRESS_BIT = bytes(flag & 1 for flag in range(256))


def _read_payload(payload: bytes, populate: bool) -> StoredShard:
    """Decode a verified payload's columns (and, if ``populate``, its annex)."""
    base = KEY_DIGEST_LENGTH
    (skeleton_length,) = struct.unpack_from("<I", payload, base)
    skeleton = decode_skeleton_columns(payload[base + 4 : base + 4 + skeleton_length])
    record = StoredShard(skeleton.index, skeleton.start_rank, len(skeleton))
    record.skeleton = skeleton
    if not populate:
        return record
    pos = base + 4 + skeleton_length
    (count,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if count != skeleton.spec_count:
        raise SkeletonStoreError(
            f"leaf annex carries {count} records for {skeleton.spec_count} chain specs"
        )
    der_lens = struct.unpack_from(f"<{count}I", payload, pos)
    pos += 4 * count
    rows = struct.unpack_from(f"<{7 * count}I", payload, pos)
    pos += 28 * count
    deflate = struct.unpack_from(f"<{count}I", payload, pos)
    pos += 4 * count
    stamp_end = pos + 1 + payload[pos]
    if payload[pos + 1 : stamp_end] != DEFLATE_STAMP:
        deflate = None
    if rows[6::7] != der_lens:
        raise SkeletonStoreError("leaf annex field-size rows disagree with its DER lengths")
    der_bounds = list(accumulate(der_lens, initial=stamp_end))
    if der_bounds[-1] != len(payload):
        raise SkeletonStoreError("leaf annex is truncated or has trailing bytes")
    record.payload = payload
    record.der_bounds = der_bounds
    record.rows = rows
    record.deflate = deflate
    return record


#: Length of the content-address digest embedded at the start of every
#: payload (hex prefix of :meth:`SkeletonKey.digest`).  The filename already
#: carries the address, but filenames can be forged by a rename — a foreign
#: shard of the *same shape* (index, rank range, length) copied under the
#: expected name would otherwise pass every structural check.  Embedding the
#: address in the digested payload makes the file self-identifying.
KEY_DIGEST_LENGTH = 16


def encode_skeleton_file(shard: SkeletonShard, key: Optional[SkeletonKey] = None) -> bytes:
    """Serialise one generation shard (skeletons + leaf annex), with header.

    Every spec's leaf is issued here.  ``key`` embeds the shard's content
    address into the payload (always set on the store's write path); without
    one a placeholder is stored and the file will fail any keyed load.
    """
    return encode_self_verifying(SKELETON_FORMAT, _encode_payload(shard, key))


def _encode_payload(shard: SkeletonShard, key: Optional[SkeletonKey]) -> bytes:
    address = (key.digest() if key is not None else "0" * KEY_DIGEST_LENGTH).encode(
        "ascii"
    )
    skeleton_bytes = encode_skeleton_shard(shard)
    annex = _encode_leaf_annex(shard)
    return address + struct.pack("<I", len(skeleton_bytes)) + skeleton_bytes + annex


def decode_skeleton_file(
    data: bytes, populate: bool = True, key: Optional[SkeletonKey] = None
) -> StoredShard:
    """Verify skeleton file bytes and read their columns into a :class:`StoredShard`.

    With ``populate=True`` the issued-leaf annex is read too (the warm path);
    ``populate=False`` skips it, so skeleton-only consumers (the sweep
    discovery pass) stay issuance-free.  A ``key`` additionally checks the
    payload's embedded content address, so a foreign file renamed to the
    expected filename is rejected even when it is internally consistent.
    No per-domain object is built; the record's :attr:`~StoredShard.shard`
    and :attr:`~StoredShard.chain_cache` (``None`` without the annex) are
    built on demand.

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
        return _read_payload(payload, populate)
    except SkeletonStoreError:
        raise
    except (SkeletonCodecError, struct.error, IndexError, OverflowError, KeyError) as error:
        raise SkeletonStoreError(f"skeleton shard payload is invalid: {error}") from error


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
        # otherwise decode the same file repeatedly.  It holds records (the
        # payload's columns), plus whatever object view a consumer built.
        self._memo: "OrderedDict[str, StoredShard]" = OrderedDict()

    def reset_memo(self) -> None:
        """Drop in-process decoded shards.

        :func:`warm` calls this after each shard: warming reads nothing back,
        so a memoised record would only keep its payload alive.
        """
        self._memo.clear()

    def _memoize(self, digest: str, record: StoredShard) -> None:
        existing = self._memo.get(digest)
        if existing is not None and existing.populated and not record.populated:
            record = existing  # never downgrade a populated entry
        self._memo[digest] = record
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

    def save(self, key: SkeletonKey, shard: SkeletonShard) -> StoredShard:
        """Persist one generation shard atomically; return the saved record.

        Leaves are issued as bytes straight into the annex
        (:func:`_encode_leaf_annex`), so no certificate or chain object
        outlives the write.  The record is shaped like a hit: it holds the
        bytes just encoded and decodes their columns on first use (a warm
        pass never does); its only difference is ``generated``, see
        :meth:`StoredShard.deployment`.  A write that fails with
        ``OSError`` (full disk, read-only or permission-denied directory)
        costs the cache, never the campaign: the record is returned uncached,
        counted as ``write_errors`` in :func:`cache_counters` with one
        warning per store.

        No attempt bookkeeping is needed (unlike checkpoints): shard bytes
        are a deterministic function of the key, so concurrent or repeated
        writes race towards identical content.
        """
        payload = _encode_payload(shard, key)
        try:
            atomic_write_bytes(
                self.path_for(key), encode_self_verifying(SKELETON_FORMAT, payload)
            )
        except OSError as error:
            self.write_errors += 1
            _CACHE_COUNTERS["write_errors"] += 1
            if self.write_errors == 1:
                warnings.warn(
                    f"skeleton cache directory {self.directory!r} is not writable "
                    f"({error}); continuing without caching new shards",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return StoredShard(shard.index, shard.start_rank, len(shard.skeletons), payload)

    def load(self, key: SkeletonKey, populate: bool = True) -> Optional[StoredShard]:
        """Load one generation shard's record (with its annex if ``populate``).

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
            record = decode_skeleton_file(data, populate=populate, key=key)
        except SkeletonStoreError:
            self.quarantine(path)
            return None
        if (
            record.index != key.index
            or record.start_rank != key.index * key.shard_size + 1
            or record.length != key.expected_length()
        ):
            self.quarantine(path)
            return None
        return record

    def quarantine(self, path: str) -> str:
        """Move a failed-verification file into ``quarantine/`` (kept, not trusted)."""
        return quarantine_file(path, self.quarantine_directory)

    def load_or_generate(
        self,
        config: PopulationConfig,
        shard_index: int,
        populate: bool = True,
    ) -> StoredShard:
        """One generation shard of the *baseline* population, cache-first.

        ``config`` must be scenario-free (the caller strips scenarios before
        consulting the store and applies transforms after); a scenario here
        would poison the cache for every other consumer.

        With ``populate=True`` a hit reads the issued-leaf annex too and a
        miss issues every spec's leaf as bytes and stores it, returning a
        hit-shaped record — so the warm path never issues and the cold path
        issues each leaf once (stage 5 re-issues its few spoof targets, see
        :meth:`StoredShard.deployment`).  With ``populate=False`` (skeleton-only
        consumers: the sweep discovery pass) the annex is neither read nor —
        on a miss — produced: the store reads through without writing,
        because writing would force the issuance the skeleton pass exists to
        skip.

        A miss builds the shard through
        :func:`~repro.webpki.population.generate_shard`; a hit builds no
        ranked list, because it reads every domain name from the stored
        skeletons.
        """
        if config.scenario is not None and not config.scenario.is_identity:
            raise SkeletonStoreError(
                "skeleton store caches baseline shards only; strip the scenario "
                "from the config and apply its transform after load"
            )
        key = SkeletonKey.for_config(config, shard_index)
        memoed = self._memo.get(key.digest())
        if memoed is not None and (memoed.populated or not populate):
            self._memo.move_to_end(key.digest())
            self.hits += 1
            _CACHE_COUNTERS["hits"] += 1
            return memoed
        loaded = self.load(key, populate=populate)
        if loaded is not None:
            self.hits += 1
            _CACHE_COUNTERS["hits"] += 1
            self._memoize(key.digest(), loaded)
            return loaded
        self.misses += 1
        _CACHE_COUNTERS["misses"] += 1
        base = config if config.scenario is None else dataclasses.replace(
            config, scenario=None
        )
        shard = generate_shard(base, shard_index)
        record = self.save(key, shard) if populate else StoredShard.of_shard(shard)
        self._memoize(key.digest(), record)
        return record

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

    Returns ``(hits, misses)`` over the warmed indices, each index counted
    once (in first-seen order) — a second warm run reports all hits.  Used by
    ``repro skeletons warm`` and tests.  Raises :class:`ValueError`, before
    touching the directory, when an index lies outside
    ``range(shard_count(config.size))``.
    """
    if shard_indices is None:
        indices: Iterable[int] = range(shard_count(config.size))
    else:
        indices = list(dict.fromkeys(shard_indices))
        check_shard_indices(indices, config.size)
    if isinstance(store, str):
        store = SkeletonStore(store)
    base = (
        config
        if config.scenario is None
        else dataclasses.replace(config, scenario=None)
    )
    store.bind(base)
    hits = misses = 0
    for index in indices:
        before = store.hits
        store.load_or_generate(base, index)
        # Warming reads nothing back; a memoised record would only keep its
        # payload alive.
        store.reset_memo()
        if store.hits > before:
            hits += 1
        else:
            misses += 1
    return hits, misses


def check_shard_indices(indices: Iterable[int], size: int) -> None:
    """Raise :class:`~repro.errors.InputError` (a ``ValueError``) unless every
    index names a generation shard."""
    count = shard_count(size)
    for index in indices:
        if not 0 <= index < count:
            raise InputError(
                f"shard index {index} is out of range: a {size}-domain population "
                f"has generation shards 0..{count - 1}"
            )


def _baseline_range(
    store: "SkeletonStore | str", config: PopulationConfig, start: int, stop: int
) -> Tuple["SkeletonStore", PopulationConfig]:
    """Check ``[start, stop)``; bind ``store`` to ``config``'s baseline."""
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
    return store, base


def skeletons_for_range(
    store: "SkeletonStore | str",
    config: PopulationConfig,
    start: int,
    stop: int,
    chain_cache: Optional[ChainCache] = None,
):
    """Cache-first counterpart of ``deployments_for_range(..., skeleton=True)``.

    Loads (or generates and caches) the covering baseline generation shards,
    slices ``[start, stop)`` exactly like
    :func:`~repro.webpki.population.deployments_for_range`, then applies the
    config's scenario transform to the slice — the same transform-after-
    baseline order the shard visit uses, so results are byte-identical
    to cache-free generation.

    Passing ``chain_cache`` additionally rebuilds the covering shards'
    chains from their issued-leaf annexes into it (a shard visit seeds its
    shared spec→chain cache this way, so member-scenario materialisation
    skips issuance for every untouched spec).
    """
    store, base = _baseline_range(store, config, start, stop)
    skeletons: List = []
    for shard_index, lo, hi in _covering_shards(start, stop):
        record = store.load_or_generate(base, shard_index, populate=chain_cache is not None)
        if chain_cache is not None:
            chain_cache.update(record.chain_cache)
        skeletons.extend(record.shard.skeletons[lo:hi])
    scenario = config.scenario
    if scenario is not None and not scenario.is_identity:
        skeletons = list(scenario.transform_skeletons(skeletons))
    return skeletons


def columns_for_range(
    store: "SkeletonStore | str", config: PopulationConfig, start: int, stop: int
) -> ShardColumns:
    """The kernel's :class:`ShardColumns` for ``[start, stop)``, cache-first.

    Reads each covering baseline shard's columns straight from its verified
    payload (a miss generates, saves and reads the bytes it saved) and builds
    no per-domain object; ``deployment(row)`` materialises single rows on
    demand.  ``config`` must not carry a transforming scenario: transformed
    members go through :func:`skeletons_for_range` and
    :func:`~repro.scanners.shard_columns.lower_deployments`.
    """
    scenario = config.scenario
    if scenario is not None and not scenario.is_identity:
        raise SkeletonStoreError(
            "stored columns are the baseline's; transform skeletons and lower "
            "the deployments instead"
        )
    store, base = _baseline_range(store, config, start, stop)
    #: ``(first row in the columns, record, first row in the record)``.
    segments: List[Tuple[int, StoredShard, int]] = []

    def deployment(row: int) -> DomainDeployment:
        first, record, offset = segments[bisect_right(segments, row, key=itemgetter(0)) - 1]
        return record.deployment(offset + row - first)

    columns = ShardColumns(deployment)
    for shard_index, lo, hi in _covering_shards(start, stop):
        record = store.load_or_generate(base, shard_index)
        segments.append((len(columns), record, lo))
        record.extend_columns(columns, lo, hi)
    return columns


def deployments_for_range(
    store: "SkeletonStore | str",
    config: PopulationConfig,
    start: int,
    stop: int,
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
    skeletons = skeletons_for_range(store, config, start, stop, chain_cache=chain_cache)
    return materialize_skeletons(skeletons, default_hierarchy(), chain_cache)

