"""Two-phase population generation: deployment skeletons and chain specs.

Phase 1 (the *skeleton pass*, :func:`repro.webpki.population._generate_shard_skeletons`)
consumes a shard's RNG stream exactly like full generation — every draw, in the
same order — but records the certificate-issuance parameters it draws in a
:class:`ChainSpec` instead of acting on them.  Phase 2
(:meth:`DeploymentSkeleton.materialize`) turns a skeleton into the eager
:class:`~repro.webpki.deployment.DomainDeployment` by issuing the recorded
chains through the template fast path of :mod:`repro.x509.issuance`.

The phases compose to exactly the eager generator — materialisation consumes
no randomness, so ``skeletons → materialize`` and one-phase generation cannot
drift apart (``tests/test_population_skeleton.py`` pins both the RNG-stream
and the field-for-field contract).  Consumers that never open certificate
chains — the sweep discovery pass of :mod:`repro.scanners.streaming`, category
counts, resolver construction — stop after phase 1 and skip issuance entirely,
which is ~20× cheaper than full generation.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.address import IPv4Address
from ..netsim.dns import DnsRcode
from ..quic.profiles import BUILTIN_PROFILES, ServerBehaviorProfile
from ..x509.ca import WebPkiHierarchy, default_hierarchy
from ..x509.certificate import Certificate
from ..x509.chain import CertificateChain
from ..x509.issuance import issue_leaf_fast, leaf_template
from ..x509.keys import KeyAlgorithm
from .deployment import DomainDeployment, ServiceCategory


# ---------------------------------------------------------------------------
# The bloated-chain extras pool (paper Figure 6 tail)
# ---------------------------------------------------------------------------

_BLOAT_POOL: Optional[Tuple[Certificate, ...]] = None


def bloat_pool() -> Tuple[Certificate, ...]:
    """CA certificates a misconfigured server may redundantly ship.

    Intermediates first, then roots, in hierarchy insertion order — the same
    deterministic pool (and order) the one-phase generator always drew from,
    cached process-wide because the hierarchy itself is a process singleton.
    """
    global _BLOAT_POOL
    if _BLOAT_POOL is None:
        hierarchy = default_hierarchy()
        _BLOAT_POOL = tuple(
            ca.certificate
            for ca in list(hierarchy.intermediates.values()) + list(hierarchy.roots.values())
        )
    return _BLOAT_POOL


def draw_bloat_extras(rng: random.Random) -> Tuple[int, ...]:
    """Draw the duplicated-certificate indices of one bloated chain.

    Consumes exactly the draws the eager ``_bloat_chain`` made — one
    ``randint`` for the copy count, one ``choice`` over an equal-length
    sequence per copy — but records pool *indices* instead of building the
    chain, so the skeleton pass stays issuance-free.
    """
    pool_indices = range(len(bloat_pool()))
    copies = rng.randint(12, 26)
    return tuple(rng.choice(pool_indices) for _ in range(copies))


# ---------------------------------------------------------------------------
# Chain specs (recorded issuance parameters)
# ---------------------------------------------------------------------------

#: Subdomain prefixes of the deterministic SAN-name pattern.
_SAN_PREFIXES = ("api", "cdn", "mail", "img", "static", "shop", "m", "blog", "dev",
                 "stage", "app", "edge", "media", "assets", "video", "login", "docs")


def san_names_for(stem: str, count: int) -> List[str]:
    """The deterministic SAN-name list for ``stem`` (pure; no randomness).

    Names are a function of ``(stem, count)`` alone, so the skeleton pass only
    records the two scalars and this expansion runs at materialisation time.
    """
    names = [stem, f"www.{stem}"]
    index = 0
    while len(names) < count:
        prefix = _SAN_PREFIXES[index % len(_SAN_PREFIXES)]
        suffix = "" if index < len(_SAN_PREFIXES) else str(index // len(_SAN_PREFIXES))
        names.append(f"{prefix}{suffix}.{stem}")
        index += 1
    return names[:max(count, 1)]


@dataclass(frozen=True)
class ChainSpec:
    """Everything needed to issue one delivered chain, recorded not acted on.

    A pure value: materialising it consumes no randomness and two equal specs
    materialise byte-identical chains, so specs can be carried across process
    boundaries or re-materialised at will.
    """

    domain: str
    ca_profile: str
    #: Leaf key override from the archetype; ``None`` uses the profile default.
    key_algorithm: Optional[KeyAlgorithm]
    #: SAN names are deterministic in ``(name_stem, san_count)`` — recorded as
    #: the two scalars and expanded by :func:`san_names_for` on materialise.
    san_count: int
    name_stem: str
    validity_days: int
    #: Indices into :func:`bloat_pool` appended after the delivered chain
    #: (empty for the overwhelmingly common non-bloated case).
    bloat_extras: Tuple[int, ...] = ()
    #: Deliver at most this many certificates (leaf first); scenario knob for
    #: the trimmed-chain counterfactual.  ``None`` delivers the chain as
    #: issued.  Applied after ``bloat_extras``, so it also caps bloat.
    trim_to: Optional[int] = None

    def __hash__(self) -> int:
        # Specs key every chain cache, so each one is hashed many times per
        # campaign (cache fill, cache lookup, annex encode/decode); memoise
        # the field-tuple hash the frozen dataclass would otherwise recompute.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                (
                    self.domain,
                    self.ca_profile,
                    self.key_algorithm,
                    self.san_count,
                    self.name_stem,
                    self.validity_days,
                    self.bloat_extras,
                    self.trim_to,
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # String hashes are salted per process; never ship the memo.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def san_names(self) -> List[str]:
        """The expanded SAN-name list (first name is always the domain)."""
        names = san_names_for(self.name_stem, self.san_count)
        names[0] = self.domain
        return names

    def materialize(self, hierarchy: Optional[WebPkiHierarchy] = None) -> CertificateChain:
        """Issue the recorded chain (via the per-profile issuance fast path)."""
        hierarchy = hierarchy or default_hierarchy()
        profile = hierarchy.profiles[self.ca_profile]
        leaf = issue_leaf_fast(
            leaf_template(profile.issuer, self.key_algorithm or profile.leaf_key_algorithm),
            self.domain,
            self.san_names(),
            self.validity_days,
        )
        return self.assemble(leaf, hierarchy)

    def assemble(
        self, leaf: Certificate, hierarchy: Optional[WebPkiHierarchy] = None
    ) -> CertificateChain:
        """Wrap an already-issued ``leaf`` in this spec's delivered chain.

        The non-leaf tail of :meth:`materialize` — delivered parent chain,
        bloat-pool appends, trim — factored out so a caller holding a
        reconstituted leaf (the skeleton store's issued-leaf annex) rebuilds
        the exact chain without re-running issuance.  Every non-leaf
        certificate is a hierarchy or bloat-pool singleton, so the chain is
        fully determined by the spec plus the leaf.
        """
        hierarchy = hierarchy or default_hierarchy()
        profile = hierarchy.profiles[self.ca_profile]
        chain = CertificateChain((leaf,) + profile.delivered_chain)
        if self.bloat_extras:
            pool = bloat_pool()
            chain = CertificateChain(
                chain.certificates + tuple(pool[index] for index in self.bloat_extras)
            )
        if self.trim_to is not None and len(chain.certificates) > self.trim_to:
            chain = CertificateChain(chain.certificates[: self.trim_to])
        return chain


# ---------------------------------------------------------------------------
# Deployment skeletons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeploymentSkeleton:
    """A :class:`DomainDeployment` minus the materialised certificate chains.

    Carries every cheap field verbatim plus the recorded :class:`ChainSpec` of
    each chain the deployment delivers.  Count-only consumers (category
    counts, the sweep discovery pass) and the resolver builder read skeletons
    directly; everything else calls :meth:`materialize`.
    """

    domain: str
    rank: int
    category: ServiceCategory
    dns_rcode: DnsRcode
    address: Optional[IPv4Address] = None
    server_behavior: Optional[ServerBehaviorProfile] = None
    provider: Optional[str] = None
    archetype: Optional[str] = None
    ca_profile: Optional[str] = None
    encapsulation_overhead: int = 0
    redirect_to: Optional[str] = None
    https_spec: Optional[ChainSpec] = None
    #: Rotated QUIC chain spec; ``None`` with ``quic_shares_https`` means the
    #: QUIC service delivers the HTTPS chain *object* (identity preserved).
    quic_spec: Optional[ChainSpec] = None
    quic_shares_https: bool = False

    # -- the cheap convenience mirror of DomainDeployment ----------------------

    @property
    def resolves(self) -> bool:
        return self.dns_rcode is DnsRcode.NOERROR and self.address is not None

    @property
    def supports_quic(self) -> bool:
        return self.category is ServiceCategory.QUIC

    # -- phase 2 ---------------------------------------------------------------

    def materialize(
        self,
        hierarchy: Optional[WebPkiHierarchy] = None,
        chain_cache: Optional[Dict[ChainSpec, CertificateChain]] = None,
    ) -> DomainDeployment:
        """Issue the recorded chains and assemble the eager deployment.

        ``chain_cache`` (a ``ChainSpec → CertificateChain`` dict the caller
        owns) skips issuance for specs already materialised — sound because a
        :class:`ChainSpec` is a pure value: equal specs materialise
        byte-identical chains.  The multi-scenario shard visit uses one cache
        across every scenario of a visit, so a chain untouched by N transforms
        is issued once, not N times.
        """
        hierarchy = hierarchy or default_hierarchy()

        def issue(spec: Optional[ChainSpec]) -> Optional[CertificateChain]:
            if spec is None:
                return None
            if chain_cache is None:
                return spec.materialize(hierarchy)
            chain = chain_cache.get(spec)
            if chain is None and spec.trim_to is not None:
                # A trimmed spec differs from its untrimmed base only in the
                # final slice, so a cached base chain (the common case when a
                # trim scenario rides a warmed cache or a multi-scenario
                # visit) is sliced instead of re-issued — byte-identical
                # because trimming reuses the same certificate objects.
                full = chain_cache.get(replace(spec, trim_to=None))
                if full is not None:
                    if len(full.certificates) > spec.trim_to:
                        full = CertificateChain(full.certificates[: spec.trim_to])
                    chain = chain_cache[spec] = full
            if chain is None:
                chain = chain_cache[spec] = spec.materialize(hierarchy)
            return chain

        https_chain = issue(self.https_spec)
        if self.quic_shares_https:
            quic_chain = https_chain
        else:
            quic_chain = issue(self.quic_spec)
        return DomainDeployment(
            domain=self.domain,
            rank=self.rank,
            category=self.category,
            dns_rcode=self.dns_rcode,
            address=self.address,
            https_chain=https_chain,
            quic_chain=quic_chain,
            server_behavior=self.server_behavior,
            provider=self.provider,
            archetype=self.archetype,
            ca_profile=self.ca_profile,
            encapsulation_overhead=self.encapsulation_overhead,
            redirect_to=self.redirect_to,
        )


def materialize_skeletons(
    skeletons: Sequence[DeploymentSkeleton],
    hierarchy: Optional[WebPkiHierarchy],
    chain_cache: Dict[ChainSpec, CertificateChain],
) -> List[DomainDeployment]:
    """Materialise a slice of skeletons through one shared chain cache.

    Equal to ``[s.materialize(hierarchy, chain_cache) for s in skeletons]``.
    A skeleton whose specs are all cached (the warm path: the skeleton
    store's issued-leaf annexes seed the cache, and a multi-scenario visit
    re-uses every chain a transform left untouched) is assembled straight
    from its field dict, bypassing the frozen-dataclass ``__init__`` and the
    per-call ``issue()`` closure of :meth:`DeploymentSkeleton.materialize`.
    Any miss (scenario-rewritten spec, trim, cold cache) falls back to the
    canonical ``materialize`` for that skeleton.
    """
    deployment_new = DomainDeployment.__new__
    cache_get = chain_cache.get
    deployments: List[DomainDeployment] = []
    append = deployments.append
    for skeleton in skeletons:
        https_spec = skeleton.https_spec
        if https_spec is not None:
            https_chain = cache_get(https_spec)
            if https_chain is None:
                append(skeleton.materialize(hierarchy, chain_cache))
                continue
        else:
            https_chain = None
        if skeleton.quic_shares_https:
            quic_chain = https_chain
        else:
            quic_spec = skeleton.quic_spec
            if quic_spec is not None:
                quic_chain = cache_get(quic_spec)
                if quic_chain is None:
                    append(skeleton.materialize(hierarchy, chain_cache))
                    continue
            else:
                quic_chain = None
        fields = dict(skeleton.__dict__)
        del fields["https_spec"], fields["quic_spec"], fields["quic_shares_https"]
        fields["https_chain"] = https_chain
        fields["quic_chain"] = quic_chain
        deployment = deployment_new(DomainDeployment)
        deployment.__dict__.update(fields)
        append(deployment)
    return deployments


def category_counts(skeletons) -> Dict[ServiceCategory, int]:
    """Category histogram of an iterable of skeletons (or deployments)."""
    counts: Dict[ServiceCategory, int] = {category: 0 for category in ServiceCategory}
    for skeleton in skeletons:
        counts[skeleton.category] += 1
    return counts


# ---------------------------------------------------------------------------
# Deterministic shard codec (the skeleton-store wire format)
# ---------------------------------------------------------------------------
#
# The persistent skeleton store (repro.scanners.skeleton_store) needs a
# serialization that is (a) deterministic — equal shards encode byte-identical,
# so content-addressed files are reproducible across hosts and Python builds,
# unlike pickle — and (b) fast to decode, because decode time is the warm
# path's generation phase.  The layout is columnar, mirroring the columnar
# scan core: one struct-packed array per field, decoded with a handful of
# C-level ``struct.unpack_from`` calls into :class:`SkeletonColumns` (which
# the columnar kernel reads as they are), plus a per-shard string table so
# each domain/provider/profile label is stored once.  Objects are built from
# the columns only on demand (:meth:`SkeletonColumns.skeleton`).
#
# Enum and builtin-profile columns store indices into the fixed orderings
# below.  Any change to those orderings, the field set, or the column layout
# is an incompatible format change: bump the store's format tag
# (``repro-skel/2``) so stale files quarantine instead of misparse.

class SkeletonCodecError(ValueError):
    """Shard bytes failed deterministic decoding (foreign or malformed payload)."""


_CATEGORIES = tuple(ServiceCategory)
_RCODES = tuple(DnsRcode)
_KEY_ALGORITHMS = tuple(KeyAlgorithm)
_CATEGORY_INDEX = {category: i for i, category in enumerate(_CATEGORIES)}
_RCODE_INDEX = {rcode: i for i, rcode in enumerate(_RCODES)}
_KEY_INDEX = {algorithm: i for i, algorithm in enumerate(_KEY_ALGORITHMS)}

#: Builtin server-behavior profiles in name order — the only behaviors a
#: *baseline* skeleton can carry (scenario transforms run after decode).
_BEHAVIORS = tuple(BUILTIN_PROFILES[name] for name in sorted(BUILTIN_PROFILES))
_BEHAVIOR_INDEX = {profile: i for i, profile in enumerate(_BEHAVIORS)}

#: u16 string-table sentinel for "no string" (optional fields).
_NO_REF = 0xFFFF

#: Decode tables indexed by the stored column value (0 means "none").
_KEY_ALGORITHM_AT = (None,) + _KEY_ALGORITHMS
_BEHAVIOR_AT = (None,) + _BEHAVIORS
#: Chain specs a row's flag byte consumes (HTTPS bit 2, QUIC bit 4).
_SPECS_PER_FLAG = bytes(bool(flag & 2) + bool(flag & 4) for flag in range(256))


def _u8(value: int, what: str) -> int:
    if not 0 <= value <= 0xFF:
        raise SkeletonCodecError(f"{what} {value} does not fit the u8 column")
    return value


def _u16(value: int, what: str) -> int:
    if not 0 <= value <= 0xFFFF:
        raise SkeletonCodecError(f"{what} {value} does not fit the u16 column")
    return value


def encode_skeleton_shard(shard) -> bytes:
    """Encode a :class:`~repro.webpki.population.SkeletonShard` deterministically."""
    skeletons = shard.skeletons
    n = len(skeletons)
    strings: Dict[str, int] = {}

    def ref(text: Optional[str]) -> int:
        if text is None:
            return _NO_REF
        index = strings.get(text)
        if index is None:
            index = len(strings)
            if index >= _NO_REF:
                raise SkeletonCodecError("shard string table overflows u16 refs")
            strings[text] = index
        return index

    flags = bytearray(n)
    categories = bytearray(n)
    rcodes = bytearray(n)
    behaviors = bytearray(n)
    encapsulations = bytearray(n)
    ranks: List[int] = []
    addresses: List[int] = []
    domains: List[int] = []
    providers: List[int] = []
    archetypes: List[int] = []
    ca_profiles: List[int] = []
    redirects: List[int] = []
    spec_domains: List[int] = []
    spec_cas: List[int] = []
    spec_keys = bytearray()
    spec_sans: List[int] = []
    spec_stems: List[int] = []
    spec_validities: List[int] = []
    spec_trims = bytearray()
    spec_bloats = bytearray()
    bloat_blob = bytearray()

    def push_spec(spec: ChainSpec) -> None:
        spec_domains.append(ref(spec.domain))
        spec_cas.append(ref(spec.ca_profile))
        spec_keys.append(
            0 if spec.key_algorithm is None else _KEY_INDEX[spec.key_algorithm] + 1
        )
        spec_sans.append(_u16(spec.san_count, "san_count"))
        spec_stems.append(ref(spec.name_stem))
        spec_validities.append(_u16(spec.validity_days, "validity_days"))
        if spec.trim_to is None:
            spec_trims.append(0)
        elif spec.trim_to <= 0:
            raise SkeletonCodecError(f"trim_to {spec.trim_to} is not encodable")
        else:
            spec_trims.append(_u8(spec.trim_to, "trim_to"))
        spec_bloats.append(_u8(len(spec.bloat_extras), "bloat extras count"))
        for index in spec.bloat_extras:
            bloat_blob.append(_u8(index, "bloat pool index"))

    for i, skeleton in enumerate(skeletons):
        flag = 0
        if skeleton.address is not None:
            flag |= 1
        if skeleton.https_spec is not None:
            flag |= 2
        if skeleton.quic_spec is not None:
            flag |= 4
        if skeleton.quic_shares_https:
            flag |= 8
        flags[i] = flag
        categories[i] = _CATEGORY_INDEX[skeleton.category]
        rcodes[i] = _RCODE_INDEX[skeleton.dns_rcode]
        if skeleton.server_behavior is None:
            behaviors[i] = 0
        else:
            behavior = _BEHAVIOR_INDEX.get(skeleton.server_behavior)
            if behavior is None:
                raise SkeletonCodecError(
                    f"server behavior {skeleton.server_behavior.name!r} is not a "
                    "builtin profile; only baseline shards are encodable"
                )
            behaviors[i] = behavior + 1
        encapsulations[i] = _u8(
            skeleton.encapsulation_overhead, "encapsulation_overhead"
        )
        if not 0 <= skeleton.rank <= 0xFFFFFFFF:
            raise SkeletonCodecError(f"rank {skeleton.rank} does not fit u32")
        ranks.append(skeleton.rank)
        addresses.append(0 if skeleton.address is None else skeleton.address.value)
        domains.append(ref(skeleton.domain))
        providers.append(ref(skeleton.provider))
        archetypes.append(ref(skeleton.archetype))
        ca_profiles.append(ref(skeleton.ca_profile))
        redirects.append(ref(skeleton.redirect_to))
        if skeleton.https_spec is not None:
            push_spec(skeleton.https_spec)
        if skeleton.quic_spec is not None:
            push_spec(skeleton.quic_spec)

    m = len(spec_domains)
    out = bytearray()
    out += struct.pack("<QQII", shard.index, shard.start_rank, n, m)
    out += struct.pack("<I", len(strings))
    for text in strings:  # insertion order == ref order
        raw = text.encode("utf-8")
        out += struct.pack("<H", _u16(len(raw), "string length"))
        out += raw
    out += struct.pack(f"<{n}I", *ranks)
    out += flags + categories + rcodes + behaviors + encapsulations
    out += struct.pack(f"<{n}I", *addresses)
    for column in (domains, providers, archetypes, ca_profiles, redirects):
        out += struct.pack(f"<{n}H", *column)
    out += struct.pack(f"<{m}H", *spec_domains)
    out += struct.pack(f"<{m}H", *spec_cas)
    out += spec_keys
    out += struct.pack(f"<{m}H", *spec_sans)
    out += struct.pack(f"<{m}H", *spec_stems)
    out += struct.pack(f"<{m}H", *spec_validities)
    out += spec_trims + spec_bloats + bloat_blob
    return bytes(out)


class SkeletonColumns:
    """One decoded skeleton shard as the codec's columns: no per-row objects.

    Enum, behaviour-profile and string-table columns are translated to their
    values during decode (every reference is resolved there, so a malformed
    payload fails in :func:`decode_skeleton_columns`, never on first use).
    The row and chain-spec columns are plain ``bytes``, tuples of ints and
    lists of values; :meth:`skeleton` builds one row's
    :class:`DeploymentSkeleton` (and :meth:`spec` one :class:`ChainSpec`)
    only for the consumers that need objects.

    Chain specs are stored in row order: row ``i`` owns the specs
    ``[spec_starts[i], spec_starts[i + 1])`` — its HTTPS spec (flag bit 2)
    first, then its QUIC spec (flag bit 4) — and spec ``j``'s bloat-pool
    indices are ``bloat_blob[bloat_starts[j] :][: spec_bloats[j]]``.
    """

    __slots__ = (
        "index", "start_rank",
        "ranks", "flags", "categories", "rcodes", "behaviors", "encapsulations",
        "addresses", "domains", "providers", "archetypes", "ca_profiles", "redirects",
        "spec_domains", "spec_cas", "spec_keys", "spec_sans", "spec_stems",
        "spec_validities", "spec_trims", "spec_bloats", "bloat_blob", "spec_starts",
        "bloat_starts",
    )

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def spec_count(self) -> int:
        return len(self.spec_domains)

    def chain_slots(self) -> Tuple[List[Optional[int]], List[Optional[int]]]:
        """Per row, the shard-local spec index of its HTTPS and QUIC chain.

        ``None`` where the row delivers no such chain; a QUIC service that
        shares the HTTPS chain (flag bit 8) names the HTTPS spec, exactly
        like :meth:`DeploymentSkeleton.materialize`.
        """
        pairs = zip(self.spec_starts, self.flags)
        https = [first if flag & 2 else None for first, flag in pairs]
        quic = [
            https_spec if flag & 8 else (first + (flag >> 1 & 1) if flag & 4 else None)
            for first, flag, https_spec in zip(self.spec_starts, self.flags, https)
        ]
        return https, quic

    def spec(self, position: int) -> ChainSpec:
        """The :class:`ChainSpec` at ``position`` (shard-local spec index)."""
        bloat = self.spec_bloats[position]
        if bloat:
            start = self.bloat_starts[position]
            extras = tuple(self.bloat_blob[start : start + bloat])
        else:
            extras = ()
        domain = self.spec_domains[position]
        ca_profile = self.spec_cas[position]
        key_algorithm = self.spec_keys[position]
        san_count = self.spec_sans[position]
        name_stem = self.spec_stems[position]
        validity_days = self.spec_validities[position]
        trim_to = self.spec_trims[position] or None
        # Construction bypasses the frozen-dataclass __init__ (decode feeds
        # thousands of specs per shard to the object view) — the field set
        # must stay in lockstep with the ChainSpec fields.
        spec = ChainSpec.__new__(ChainSpec)
        spec.__dict__.update(
            {
                "domain": domain,
                "ca_profile": ca_profile,
                "key_algorithm": key_algorithm,
                "san_count": san_count,
                "name_stem": name_stem,
                "validity_days": validity_days,
                "bloat_extras": extras,
                "trim_to": trim_to,
                # ChainSpec.__hash__'s memo over the same field tuple,
                # computed without the method call: every decoded spec keys
                # a chain cache.
                "_hash": hash(
                    (
                        domain,
                        ca_profile,
                        key_algorithm,
                        san_count,
                        name_stem,
                        validity_days,
                        extras,
                        trim_to,
                    )
                ),
            }
        )
        return spec

    def skeleton(self, row: int) -> DeploymentSkeleton:
        """Row ``row`` as a :class:`DeploymentSkeleton` (its specs included)."""
        flag = self.flags[row]
        position = self.spec_starts[row]
        https_spec = quic_spec = None
        if flag & 2:
            https_spec = self.spec(position)
            position += 1
        if flag & 4:
            quic_spec = self.spec(position)
        if flag & 1:
            # One field: set it in place, so no per-instance dict is built.
            address = IPv4Address.__new__(IPv4Address)
            object.__setattr__(address, "value", self.addresses[row])
        else:
            address = None
        # Bypasses the frozen-dataclass __init__ like :meth:`spec`; the field
        # set must stay in lockstep with the DeploymentSkeleton fields.
        skeleton = DeploymentSkeleton.__new__(DeploymentSkeleton)
        skeleton.__dict__.update(
            {
                "domain": self.domains[row],
                "rank": self.ranks[row],
                "category": self.categories[row],
                "dns_rcode": self.rcodes[row],
                "address": address,
                "server_behavior": self.behaviors[row],
                "provider": self.providers[row],
                "archetype": self.archetypes[row],
                "ca_profile": self.ca_profiles[row],
                "encapsulation_overhead": self.encapsulations[row],
                "redirect_to": self.redirects[row],
                "https_spec": https_spec,
                "quic_spec": quic_spec,
                "quic_shares_https": bool(flag & 8),
            }
        )
        return skeleton

    def skeletons(self) -> List[DeploymentSkeleton]:
        """Every row as a :class:`DeploymentSkeleton`."""
        return list(map(self.skeleton, range(len(self))))

    def shard(self):
        """The whole shard as a :class:`~repro.webpki.population.SkeletonShard`."""
        from .population import SkeletonShard

        return SkeletonShard(
            index=self.index, start_rank=self.start_rank, skeletons=tuple(self.skeletons())
        )


def decode_skeleton_columns(data: bytes) -> SkeletonColumns:
    """Decode :func:`encode_skeleton_shard` bytes into :class:`SkeletonColumns`.

    Raises :class:`SkeletonCodecError` on any structural defect.  Bit-level
    corruption is already excluded by the store's self-verifying header; this
    guards against foreign or stale-layout payloads.
    """
    try:
        return _decode_skeleton_columns(data)
    except SkeletonCodecError:
        raise
    except (struct.error, IndexError, KeyError, UnicodeDecodeError, ValueError) as error:
        raise SkeletonCodecError(f"skeleton shard payload is malformed: {error}") from error


def _decode_skeleton_columns(data: bytes) -> SkeletonColumns:
    index, start_rank, n, m = struct.unpack_from("<QQII", data, 0)
    pos = 24
    (n_strings,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if n_strings >= _NO_REF:
        raise SkeletonCodecError("shard string table overflows u16 refs")
    table: List[str] = []
    append = table.append
    for _ in range(n_strings):
        # u16 little-endian length, then the UTF-8 bytes.
        start = pos + 2
        pos = start + (data[pos] | data[pos + 1] << 8)
        append(data[start:pos].decode("utf-8"))
    if pos > len(data):
        raise SkeletonCodecError("shard string table is truncated")

    columns = SkeletonColumns()
    columns.index = index
    columns.start_rank = start_rank
    columns.ranks = struct.unpack_from(f"<{n}I", data, pos)
    pos += 4 * n
    byte_columns = []
    for _ in range(5):
        byte_columns.append(data[pos : pos + n])
        pos += n
    flags, categories, rcodes, behaviors, encapsulations = byte_columns
    if len(encapsulations) != n:
        raise SkeletonCodecError("shard byte columns are truncated")
    columns.addresses = struct.unpack_from(f"<{n}I", data, pos)
    pos += 4 * n
    string_columns = []
    for _ in range(5):
        string_columns.append(struct.unpack_from(f"<{n}H", data, pos))
        pos += 2 * n
    domains, providers, archetypes, ca_profiles, redirects = string_columns
    spec_domains = struct.unpack_from(f"<{m}H", data, pos)
    pos += 2 * m
    spec_cas = struct.unpack_from(f"<{m}H", data, pos)
    pos += 2 * m
    spec_keys = data[pos : pos + m]
    pos += m
    columns.spec_sans = struct.unpack_from(f"<{m}H", data, pos)
    pos += 2 * m
    spec_stems = struct.unpack_from(f"<{m}H", data, pos)
    pos += 2 * m
    columns.spec_validities = struct.unpack_from(f"<{m}H", data, pos)
    pos += 2 * m
    columns.spec_trims = data[pos : pos + m]
    pos += m
    spec_bloats = columns.spec_bloats = data[pos : pos + m]
    pos += m
    if len(spec_bloats) != m:
        raise SkeletonCodecError("shard spec columns are truncated")
    bloat_starts = columns.bloat_starts = list(accumulate(spec_bloats, initial=0))
    bloat_total = bloat_starts[-1]
    columns.bloat_blob = data[pos : pos + bloat_total]
    pos += bloat_total
    if pos != len(data):
        raise SkeletonCodecError(
            f"shard payload has {len(data) - pos} unexpected trailing bytes"
        )
    spec_starts = columns.spec_starts = list(
        accumulate(flags.translate(_SPECS_PER_FLAG), initial=0)
    )
    if spec_starts[-1] != m:
        raise SkeletonCodecError(
            f"shard names {m} chain specs but its rows use {spec_starts[-1]}"
        )

    # Every column is translated to field values in C (``map`` over the
    # column); an out-of-range index or string reference raises here.
    refs = dict(enumerate(table))
    refs[_NO_REF] = None
    string_at = table.__getitem__
    optional_string_at = refs.__getitem__
    columns.flags = flags
    columns.categories = list(map(_CATEGORIES.__getitem__, categories))
    columns.rcodes = list(map(_RCODES.__getitem__, rcodes))
    columns.behaviors = list(map(_BEHAVIOR_AT.__getitem__, behaviors))
    columns.encapsulations = encapsulations
    columns.domains = list(map(string_at, domains))
    columns.providers = list(map(optional_string_at, providers))
    columns.archetypes = list(map(optional_string_at, archetypes))
    columns.ca_profiles = list(map(optional_string_at, ca_profiles))
    columns.redirects = list(map(optional_string_at, redirects))
    columns.spec_domains = list(map(string_at, spec_domains))
    columns.spec_cas = list(map(string_at, spec_cas))
    columns.spec_keys = list(map(_KEY_ALGORITHM_AT.__getitem__, spec_keys))
    columns.spec_stems = list(map(string_at, spec_stems))
    return columns
