"""Synthetic Web/PKI population.

This package generates the "Internet" the scanners measure: a ranked domain
list (Tranco equivalent), hosting providers with their QUIC behaviour, the CA
chains they deploy, and the per-domain deployments (DNS outcome, HTTPS and
QUIC support, certificate chain, load-balancer encapsulation).

All knobs are calibrated to the distributions reported in the paper so the
reproduced figures have the same shape: the DNS funnel and service-mix
fractions sit on :class:`PopulationConfig`, the chain and behaviour shares on
the archetype weights in :mod:`repro.webpki.providers`.
"""

from .tranco import TrancoList, generate_tranco_list
from .providers import (
    HostingProvider,
    DeploymentArchetype,
    PROVIDERS,
    QUIC_ARCHETYPES,
    HTTPS_ONLY_ARCHETYPES,
    sample_san_count,
)
from .deployment import DomainDeployment, ServiceCategory
from .skeleton import ChainSpec, DeploymentSkeleton
from .population import (
    GENERATION_SHARD_SIZE,
    InternetPopulation,
    PopulationConfig,
    PopulationShard,
    SkeletonShard,
    deployments_for_range,
    generate_population,
    generate_shard,
    iter_population_shards,
)

__all__ = [
    "TrancoList",
    "generate_tranco_list",
    "HostingProvider",
    "DeploymentArchetype",
    "PROVIDERS",
    "QUIC_ARCHETYPES",
    "HTTPS_ONLY_ARCHETYPES",
    "sample_san_count",
    "DomainDeployment",
    "ServiceCategory",
    "ChainSpec",
    "DeploymentSkeleton",
    "GENERATION_SHARD_SIZE",
    "InternetPopulation",
    "PopulationConfig",
    "PopulationShard",
    "SkeletonShard",
    "deployments_for_range",
    "generate_population",
    "generate_shard",
    "iter_population_shards",
]
