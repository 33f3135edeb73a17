"""Generation of the synthetic Internet population.

``generate_population`` turns a ranked domain list into per-domain
deployments whose aggregate statistics match the paper's measurements (the
calibration targets are the :class:`PopulationConfig` fractions and the
archetype weights in :mod:`repro.webpki.providers`), and can materialise the
simulated network (DNS zone, HTTP origins, QUIC hosts, telescope) the
scanners run against.

Generation is *sharded*: the ranked list is cut into rank-contiguous shards of
:data:`GENERATION_SHARD_SIZE` domains, and every shard is generated from its
own RNG derived from ``(seed, shard_index)``.  Shard ``i`` therefore depends
on nothing but the config and ``i`` — shards can be generated in any order, in
parallel worker processes, or streamed one at a time
(:func:`iter_population_shards`) without ever materialising the full
deployment list, and the result is always identical to the eager
:func:`generate_population` path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> population)
    from ..scenarios.spec import ScenarioSpec

from ..netsim.address import IPv4Address, IPv4Prefix
from ..netsim.dns import DnsRcode, SimulatedResolver
from ..netsim.http import HttpOrigin, RedirectKind
from ..netsim.network import QuicServiceHost, UdpNetwork
from ..quic.profiles import (
    MVFST_LIKE,
    MVFST_PATCHED,
    RFC_COMPLIANT_NO_COMPRESSION,
    ServerBehaviorProfile,
)
from ..x509.ca import default_hierarchy
from ..x509.keys import KeyAlgorithm
from .deployment import DomainDeployment, ServiceCategory
from .skeleton import (
    ChainSpec,
    DeploymentSkeleton,
    category_counts,
    draw_bloat_extras,
    san_names_for,
)
from .providers import (
    PROVIDERS,
    QUIC_ARCHETYPES,
    DeploymentArchetype,
    choose_https_only_archetype,
    choose_quic_archetype,
    sample_san_count,
)
from .tranco import TrancoList, generate_tranco_list


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the synthetic population.

    The default ``size`` keeps full experiment runs in the seconds range;
    every share-based result is scale-free, so raising the size towards the
    paper's 1M only sharpens the tails.
    """

    size: int = 20_000
    seed: int = 2022
    # DNS funnel (§3.1): fractions of all names.
    servfail_fraction: float = 0.013
    nxdomain_fraction: float = 0.009
    timeout_fraction: float = 0.010
    refused_fraction: float = 0.002
    no_a_record_fraction: float = 0.110
    # Service mix among resolved names with an A record (Appendix D).
    quic_fraction_of_resolved: float = 0.242
    https_only_fraction_of_resolved: float = 0.681
    # Deployment details.
    redirect_fraction: float = 0.15
    different_quic_cert_fraction: float = 0.033
    top_rank_one_rtt_boost: float = 0.02
    #: Share of generic QUIC deployments built on a TLS library without
    #: RFC 8879 support (brings overall brotli support to ≈96 %, Table 1).
    no_compression_fraction: float = 0.04
    #: What-if scenario this population is generated under (see
    #: :mod:`repro.scenarios`).  ``None`` (and any identity scenario) is the
    #: 2022 baseline.  The scenario's skeleton transform runs *after* a
    #: shard's RNG stream is consumed, so the per-shard RNG contract — and
    #: therefore which domains, DNS outcomes, archetypes and addresses a seed
    #: denotes — is scenario-independent.
    scenario: Optional["ScenarioSpec"] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("population size must be positive")
        failure_total = (
            self.servfail_fraction
            + self.nxdomain_fraction
            + self.timeout_fraction
            + self.refused_fraction
            + self.no_a_record_fraction
        )
        if failure_total >= 1.0:
            raise ValueError("DNS failure fractions must sum to less than 1")
        if self.quic_fraction_of_resolved + self.https_only_fraction_of_resolved > 1.0:
            raise ValueError("service fractions of resolved names must sum to at most 1")


@dataclass
class InternetPopulation:
    """The generated population plus lookup helpers."""

    config: PopulationConfig
    tranco: TrancoList
    deployments: List[DomainDeployment]
    _by_category: Dict[ServiceCategory, Tuple[DomainDeployment, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_category:
            # Precomputed once so the figure modules' repeated category lookups
            # stop scanning the full deployment list.
            buckets: Dict[ServiceCategory, List[DomainDeployment]] = {
                category: [] for category in ServiceCategory
            }
            for deployment in self.deployments:
                buckets[deployment.category].append(deployment)
            self._by_category = {
                category: tuple(members) for category, members in buckets.items()
            }

    # -- lookups ---------------------------------------------------------------

    def by_category(self, category: ServiceCategory) -> List[DomainDeployment]:
        return list(self._by_category.get(category, ()))

    def quic_services(self) -> List[DomainDeployment]:
        return self.by_category(ServiceCategory.QUIC)

    def category_counts(self) -> Dict[ServiceCategory, int]:
        return {
            category: len(self._by_category.get(category, ()))
            for category in ServiceCategory
        }


# ---------------------------------------------------------------------------
# Materialising the simulated network for any deployment subset
# ---------------------------------------------------------------------------
#
# Module-level so per-shard workers can build a resolver/origins/network for
# just their slice of the population.  Deployments are self-contained (the
# only cross-domain reference, ``redirect_to``, always points at
# ``www.<domain>`` of the same deployment), so building for a subset yields
# exactly the sub-fabric the subset's scanners need.

def build_resolver_for(deployments: Iterable[DomainDeployment]) -> SimulatedResolver:
    """Build the DNS view of ``deployments``.

    Also accepts phase-1 :class:`~repro.webpki.skeleton.DeploymentSkeleton`
    iterables: resolution never looks at certificate chains, so resolver
    construction does not require materialisation.
    """
    resolver = SimulatedResolver()
    for deployment in deployments:
        if deployment.dns_rcode is not DnsRcode.NOERROR:
            resolver.add_failure(deployment.domain, deployment.dns_rcode)
        elif deployment.address is None:
            resolver.add_no_address(deployment.domain)
        else:
            resolver.add_record(deployment.domain, deployment.address)
            # Redirect targets (www.<domain>) resolve to the same address.
            if deployment.redirect_to:
                resolver.add_record(deployment.redirect_to, deployment.address)
    return resolver


def build_origins_for(deployments: Iterable[DomainDeployment]) -> Dict[str, HttpOrigin]:
    origins: Dict[str, HttpOrigin] = {}
    for deployment in deployments:
        if not deployment.resolves:
            continue
        chain = deployment.https_chain
        redirect_kind = RedirectKind.NONE
        redirect_target = None
        if deployment.redirect_to and chain is not None:
            redirect_kind = RedirectKind.HTTP_301
            redirect_target = f"https://{deployment.redirect_to}/"
            origins[deployment.redirect_to] = HttpOrigin(
                domain=deployment.redirect_to, https_chain=chain
            )
        origins[deployment.domain] = HttpOrigin(
            domain=deployment.domain,
            https_chain=chain,
            redirect_kind=redirect_kind,
            redirect_target=redirect_target,
        )
    return origins


def build_network_for(deployments: Iterable[DomainDeployment], flight_cache=None) -> UdpNetwork:
    network = UdpNetwork(flight_cache=flight_cache)
    for deployment in deployments:
        if not deployment.supports_quic or deployment.address is None:
            continue
        network.attach_host(
            QuicServiceHost(
                address=deployment.address,
                domain=deployment.domain,
                chain=deployment.quic_chain,
                profile=deployment.server_behavior,
                encapsulation_overhead=deployment.encapsulation_overhead,
            )
        )
    return network


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

#: Number of consecutive ranks generated per shard.  This is a *generation*
#: constant, not a tuning knob: the RNG of shard ``i`` is derived from
#: ``(seed, i)`` and the shard covers ranks ``[i * SIZE + 1, (i+1) * SIZE]``,
#: so changing it changes which population a seed denotes.  Scan-time sharding
#: (``repro.scanners.sharding``) chunks the generated deployments however it
#: likes and is unaffected.
GENERATION_SHARD_SIZE = 1024


@dataclass(frozen=True)
class PopulationShard:
    """One rank-contiguous slice of the generated population."""

    index: int
    start_rank: int
    deployments: Tuple[DomainDeployment, ...]


@dataclass(frozen=True)
class SkeletonShard:
    """One rank-contiguous slice of the population in skeleton (phase 1) form.

    The near-free counterpart of :class:`PopulationShard`: the same RNG stream
    was consumed, but no certificate chain has been issued yet.  Count-only
    consumers read :meth:`category_counts`; everything else calls
    :meth:`materialize` to obtain the byte-identical full shard.
    """

    index: int
    start_rank: int
    skeletons: Tuple[DeploymentSkeleton, ...]

    def category_counts(self) -> Dict[ServiceCategory, int]:
        return category_counts(self.skeletons)

    def materialize(self, hierarchy=None) -> PopulationShard:
        """Phase 2: issue every recorded chain and return the full shard."""
        hierarchy = hierarchy or default_hierarchy()
        # The Meta PoP chains are population data too: issue them with the
        # rest of the certificates (memoized process-wide) so the finalize
        # stage, which probes the PoP on every campaign, never pays issuance
        # mid-reduction.
        _meta_pop_chain_rows()
        return PopulationShard(
            index=self.index,
            start_rank=self.start_rank,
            deployments=tuple(
                skeleton.materialize(hierarchy) for skeleton in self.skeletons
            ),
        )


def _dns_outcome(rng: random.Random, config: PopulationConfig) -> Tuple[DnsRcode, bool]:
    """Return (rcode, has_a_record)."""
    roll = rng.random()
    threshold = config.servfail_fraction
    if roll < threshold:
        return DnsRcode.SERVFAIL, False
    threshold += config.nxdomain_fraction
    if roll < threshold:
        return DnsRcode.NXDOMAIN, False
    threshold += config.timeout_fraction
    if roll < threshold:
        return DnsRcode.TIMEOUT, False
    threshold += config.refused_fraction
    if roll < threshold:
        return DnsRcode.REFUSED, False
    threshold += config.no_a_record_fraction
    if roll < threshold:
        return DnsRcode.NOERROR, False
    return DnsRcode.NOERROR, True


def _san_names(rng: random.Random, domain: str, count: int) -> List[str]:
    # Deterministic in (domain, count); ``rng`` kept for signature stability.
    return san_names_for(domain, count)


def _draw_chain_spec(
    rng: random.Random,
    domain: str,
    archetype: DeploymentArchetype,
    ca_profile_label: str,
    serial_suffix: str = "",
) -> ChainSpec:
    """Draw one chain's issuance parameters and record them as a spec.

    This is the *only* place chain randomness is consumed — the rare bloated
    chains (18–38 kB, the Figure 6 tail: misconfigured servers shipping
    duplicated intermediates and roots) included, whose duplicated-certificate
    picks are recorded as pool indices by :func:`draw_bloat_extras`.  The
    skeleton pass and full generation share this draw site, so their RNG
    streams are identical by construction.
    """
    san_count = sample_san_count(rng, archetype)
    validity_days = rng.choice((90, 90, 90, 365, 397))
    bloat_extras: Tuple[int, ...] = ()
    if rng.random() < archetype.bloated_chain_probability:
        bloat_extras = draw_bloat_extras(rng)
    return ChainSpec(
        domain=domain,
        ca_profile=ca_profile_label,
        key_algorithm=archetype.leaf_key_algorithm,
        san_count=san_count,
        name_stem=domain if not serial_suffix else f"{serial_suffix}.{domain}",
        validity_days=validity_days,
        bloat_extras=bloat_extras,
    )


def _generate_shard_skeletons(
    config: PopulationConfig,
    domains: Sequence[str],
    shard_index: int,
    start_rank: int,
) -> List[DeploymentSkeleton]:
    """Phase 1: generate one shard's deployment skeletons (no chain issuance).

    Everything random about the shard comes from ``(config.seed,
    shard_index)``; the address allocator interleaves the per-provider host
    indices of all shards (``local * shard_count + shard_index``) so shards
    allocate globally unique, densely packed indices without coordinating.
    Chain issuance parameters are drawn (preserving the RNG stream) but only
    *recorded*; materialising them is phase 2 (:class:`DeploymentSkeleton`).
    """
    rng = random.Random(f"population:{config.seed}:shard:{shard_index}")
    skeletons: List[DeploymentSkeleton] = []
    provider_host_counters: Dict[str, int] = {}
    # Interleave stride: the total number of generation shards of this
    # population.  Indices l*stride+i are globally unique (i < stride) and stay
    # as dense as a single global counter, so even small provider prefixes
    # (the Meta /24) only wrap when the provider genuinely runs out of space.
    address_stride = max(1, -(-config.size // GENERATION_SHARD_SIZE))

    # Rank thresholds scale with the population so a 20k population behaves
    # like a proportionally scaled-down Tranco 1M list: the paper's "top 1k",
    # "top 10k" and "top 100k" effects apply to the same *fractions* here.
    top_1k_equivalent = max(1, config.size // 1000)
    top_10k_equivalent = max(1, config.size // 100)
    top_100k_equivalent = max(1, config.size // 10)

    for offset, domain in enumerate(domains):
        rank = start_rank + offset
        rcode, has_a = _dns_outcome(rng, config)
        if not has_a:
            skeletons.append(
                DeploymentSkeleton(
                    domain=domain, rank=rank, category=ServiceCategory.UNRESOLVED, dns_rcode=rcode
                )
            )
            continue

        roll = rng.random()
        if roll < config.quic_fraction_of_resolved:
            category = ServiceCategory.QUIC
        elif roll < config.quic_fraction_of_resolved + config.https_only_fraction_of_resolved:
            category = ServiceCategory.HTTPS_ONLY
        else:
            category = ServiceCategory.INSECURE

        if category is ServiceCategory.INSECURE:
            address = _allocate_address(
                provider_host_counters, "https-only-hosting", shard_index, address_stride
            )
            skeletons.append(
                DeploymentSkeleton(
                    domain=domain,
                    rank=rank,
                    category=category,
                    dns_rcode=DnsRcode.NOERROR,
                    address=address,
                    provider="https-only-hosting",
                )
            )
            continue

        if category is ServiceCategory.QUIC:
            archetype = choose_quic_archetype(rng)
            # The paper observes slightly more 1-RTT deployments among the most
            # popular names (Figure 13); model it as a small boost of
            # short-chain deployments in the top rank group.
            if rank <= top_100k_equivalent and rng.random() < config.top_rank_one_rtt_boost:
                archetype = next(a for a in QUIC_ARCHETYPES if a.name == "lets-encrypt-e1-short")
        else:
            archetype = choose_https_only_archetype(rng)

        provider = PROVIDERS[archetype.provider]
        ca_profile_label = archetype.ca_profile
        if archetype.ca_profile_pool:
            ca_profile_label = rng.choice(archetype.ca_profile_pool)
        https_spec = _draw_chain_spec(rng, domain, archetype, ca_profile_label)

        quic_spec: Optional[ChainSpec] = None
        quic_shares_https = False
        behavior: Optional[ServerBehaviorProfile] = None
        encapsulation_overhead = 0
        if category is ServiceCategory.QUIC:
            if rng.random() < config.different_quic_cert_fraction:
                quic_spec = _draw_chain_spec(
                    rng, domain, archetype, ca_profile_label, serial_suffix="rotated"
                )
            else:
                quic_shares_https = True
            behavior = provider.behavior
            if (
                behavior.name == "rfc-compliant"
                and rng.random() < config.no_compression_fraction
            ):
                behavior = RFC_COMPLIANT_NO_COMPRESSION
            tunnel_probability = archetype.tunnel_probability
            if rank <= top_1k_equivalent:
                tunnel_probability = max(tunnel_probability, 0.25)
            elif rank <= top_10k_equivalent:
                tunnel_probability = max(tunnel_probability, 0.12)
            if rng.random() < tunnel_probability:
                encapsulation_overhead = rng.choice((28, 36, 48, 60))

        address = _allocate_address(provider_host_counters, provider.name, shard_index, address_stride)
        redirect_to = None
        if rng.random() < config.redirect_fraction:
            redirect_to = f"www.{domain}"

        skeletons.append(
            DeploymentSkeleton(
                domain=domain,
                rank=rank,
                category=category,
                dns_rcode=DnsRcode.NOERROR,
                address=address,
                server_behavior=behavior,
                provider=provider.name,
                archetype=archetype.name,
                ca_profile=ca_profile_label,
                encapsulation_overhead=encapsulation_overhead,
                redirect_to=redirect_to,
                https_spec=https_spec,
                quic_spec=quic_spec,
                quic_shares_https=quic_shares_https,
            )
        )

    # Phase 1.5: the scenario transform.  Runs after the shard's RNG stream is
    # fully consumed and draws no randomness itself, so every scenario sees
    # the same underlying population and only the recorded chain specs /
    # behaviour profiles differ.  Identity scenarios skip the rewrite.
    scenario = config.scenario
    if scenario is not None and not scenario.is_identity:
        skeletons = scenario.transform_skeletons(skeletons)

    return skeletons


def generate_shard(
    config: PopulationConfig, shard_index: int, skeleton: bool = False
) -> "PopulationShard | SkeletonShard":
    """Generate a single shard, independent of every other shard.

    Workers use this to rebuild exactly the slice of the population they are
    responsible for without receiving (or generating) the rest.  With
    ``skeleton=True`` only phase 1 runs — same RNG stream, no chain issuance —
    and a :class:`SkeletonShard` is returned (``.materialize()`` yields the
    byte-identical full shard).
    """
    start = shard_index * GENERATION_SHARD_SIZE
    if not 0 <= start < config.size:
        raise ValueError(f"shard index {shard_index} out of range for size {config.size}")
    tranco = generate_tranco_list(config.size, seed=config.seed)
    domains = tranco.domains[start : start + GENERATION_SHARD_SIZE]
    skeletons = _generate_shard_skeletons(config, domains, shard_index, start + 1)
    shard = SkeletonShard(index=shard_index, start_rank=start + 1, skeletons=tuple(skeletons))
    if skeleton:
        return shard
    return shard.materialize(default_hierarchy())


def iter_population_shards(
    config: Optional[PopulationConfig] = None,
    tranco: Optional[TrancoList] = None,
    skeleton: bool = False,
) -> "Iterator[PopulationShard | SkeletonShard]":
    """Stream the population shard by shard, in rank order.

    Only one shard's deployments (certificate chains included) are alive at a
    time unless the caller keeps them, so 100k+ domain populations can be
    consumed without holding the full deployment list in memory.  The
    concatenation of all shards is exactly :func:`generate_population`'s
    deployment list.  With ``skeleton=True`` the stream yields
    :class:`SkeletonShard` phase-1 shards instead — no chain issuance, ~20×
    cheaper — for count-only consumers like the sweep discovery pass.
    """
    config = config or PopulationConfig()
    tranco = tranco or generate_tranco_list(config.size, seed=config.seed)
    hierarchy = default_hierarchy()
    for shard_index, start in enumerate(range(0, config.size, GENERATION_SHARD_SIZE)):
        domains = tranco.domains[start : start + GENERATION_SHARD_SIZE]
        skeletons = _generate_shard_skeletons(config, domains, shard_index, start + 1)
        shard = SkeletonShard(
            index=shard_index, start_rank=start + 1, skeletons=tuple(skeletons)
        )
        yield shard if skeleton else shard.materialize(hierarchy)


def deployments_for_range(
    config: PopulationConfig,
    start: int,
    stop: int,
    tranco: Optional[TrancoList] = None,
    skeleton: bool = False,
) -> "List[DomainDeployment] | List[DeploymentSkeleton]":
    """Regenerate the deployments at list indices ``[start, stop)``.

    Works for any range, aligned to generation shards or not: the covering
    shards are regenerated from their ``(seed, shard_index)`` RNGs and sliced.
    Scan-time workers use this to rebuild exactly their slice of a generated
    population from ``(config, start, stop)`` instead of receiving the
    deployments (with all their certificate chains) over IPC.

    Two-phase generation makes unaligned ranges cheaper than they used to be:
    the covering shards only run the skeleton pass, and chains are
    materialised for the ``[start, stop)`` slice alone — never for the parts
    of a covering shard that fall outside the range.  ``skeleton=True`` skips
    materialisation entirely and returns the phase-1 skeletons.
    """
    if not 0 <= start <= stop <= config.size:
        raise ValueError(f"range [{start}, {stop}) out of bounds for size {config.size}")
    tranco = tranco or generate_tranco_list(config.size, seed=config.seed)
    hierarchy = default_hierarchy()
    skeletons: List[DeploymentSkeleton] = []
    first_shard = start // GENERATION_SHARD_SIZE
    last_shard = max(first_shard, (stop - 1) // GENERATION_SHARD_SIZE) if stop > start else first_shard
    for shard_index in range(first_shard, last_shard + 1):
        shard_start = shard_index * GENERATION_SHARD_SIZE
        domains = tranco.domains[shard_start : shard_start + GENERATION_SHARD_SIZE]
        shard = _generate_shard_skeletons(
            config, domains, shard_index, shard_start + 1
        )
        skeletons.extend(
            shard[max(start - shard_start, 0) : max(stop - shard_start, 0)]
        )
    if skeleton:
        return skeletons
    return [s.materialize(hierarchy) for s in skeletons]


def generate_population(config: Optional[PopulationConfig] = None) -> InternetPopulation:
    """Generate the full synthetic population deterministically (eager path)."""
    config = config or PopulationConfig()
    tranco = generate_tranco_list(config.size, seed=config.seed)
    deployments: List[DomainDeployment] = []
    for shard in iter_population_shards(config, tranco=tranco):
        deployments.extend(shard.deployments)
    return InternetPopulation(config=config, tranco=tranco, deployments=deployments)


def _allocate_address(
    counters: Dict[str, int], provider_name: str, shard_index: int, stride: int
) -> IPv4Address:
    provider = PROVIDERS[provider_name]
    local_index = counters.get(provider_name, 0)
    counters[provider_name] = local_index + 1
    index = local_index * stride + shard_index
    prefix = provider.prefix_for(index // 200)
    offset = index % min(prefix.num_addresses, 65_536)
    return prefix.address_at(offset)


# ---------------------------------------------------------------------------
# The Meta point of presence (§4.3, Figure 11)
# ---------------------------------------------------------------------------

#: Host octets present in the Meta /24 in the paper's Figure 11.
META_POP_HOST_OCTETS: Tuple[int, ...] = tuple(range(1, 44)) + tuple(range(49, 61)) + (63,) + tuple(
    range(128, 133)
) + tuple(range(158, 165)) + (167, 168, 169, 172, 174, 182, 183)

#: Octets that serve Instagram/WhatsApp — the high-amplification group (3).
META_HIGH_AMPLIFICATION_OCTETS = frozenset(range(49, 61)) | {63} | set(range(158, 165))

#: Octets with no QUIC/HTTP3 service at all — group (1) in the paper.
META_NO_SERVICE_OCTETS = frozenset({40, 41, 42, 43, 128, 129, 130, 131, 132})


def meta_domain_for_octet(octet: int) -> str:
    if octet in META_HIGH_AMPLIFICATION_OCTETS:
        return "instagram.com" if octet % 2 == 0 else "whatsapp.net"
    return "facebook.com" if octet % 3 else "fbcdn.net"


#: Memoized (octet, domain, chain) rows of the Meta /24 — the chains are
#: seed-derived and immutable, so the one expensive part of rebuilding the PoP
#: (issuing ~70 wide-SAN leaves) is paid once per process.  Host objects are
#: still constructed fresh per call: ``UdpNetwork.attach_host`` mutates the
#: host's flight-cache binding, so instances must not be shared.
_META_POP_CHAIN_ROWS: Optional[List[Tuple[int, str, CertificateChain]]] = None


def _meta_pop_chain_rows() -> List[Tuple[int, str, CertificateChain]]:
    global _META_POP_CHAIN_ROWS
    if _META_POP_CHAIN_ROWS is None:
        hierarchy = default_hierarchy()
        meta_profile = hierarchy.profiles["DigiCert SHA2 + root (Meta)"]
        rng = random.Random("meta-pop")
        rows: List[Tuple[int, str, CertificateChain]] = []
        for octet in META_POP_HOST_OCTETS:
            if octet in META_NO_SERVICE_OCTETS:
                continue
            domain = meta_domain_for_octet(octet)
            san_count = rng.randint(45, 90)
            chain = meta_profile.issue(
                domain,
                san_names=_san_names(rng, domain, san_count),
                key_algorithm=KeyAlgorithm.ECDSA_P256,
            )
            rows.append((octet, domain, chain))
        _META_POP_CHAIN_ROWS = rows
    return _META_POP_CHAIN_ROWS


def build_meta_point_of_presence(
    patched: bool = False,
    prefix: IPv4Prefix = IPv4Prefix.parse("157.240.20.0/24"),
) -> List[QuicServiceHost]:
    """Build the Meta /24 point of presence scanned in §4.3.

    Before the disclosure (``patched=False``) the Instagram/WhatsApp hosts
    retransmit their whole flight several times (amplification ≈28×) while the
    facebook.com hosts send it once (≈5×).  After the disclosure all hosts
    behave homogeneously with a single flight (mean ≈5×).
    """
    hosts: List[QuicServiceHost] = []
    for octet, domain, chain in _meta_pop_chain_rows():
        if patched:
            profile = MVFST_PATCHED
        elif octet in META_HIGH_AMPLIFICATION_OCTETS:
            profile = MVFST_LIKE
        else:
            profile = MVFST_PATCHED  # single flight, still above the limit
        hosts.append(
            QuicServiceHost(
                address=prefix.address_at(octet),
                domain=domain,
                chain=chain,
                profile=profile,
            )
        )
    return hosts
