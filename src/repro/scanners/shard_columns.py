"""The columnar kernel's one input type: a scan shard as columns.

:func:`~repro.scanners.columnar.summarize_shard_columnar` reads a shard as a
:class:`ShardColumns` record — per-row deployment columns plus a per-chain
table — and touches no ``DomainDeployment``, ``CertificateChain`` or
``Certificate`` for stages 1–4.  Two builders produce the record:

* :func:`lower_deployments` lowers any deployment sequence: cold runs without
  a skeleton store, grid members whose scenario rewrote the skeletons, and
  hand-assembled shards;
* :func:`~repro.scanners.skeleton_store.columns_for_range` reads a
  store-backed shard straight from the verified ``.skel`` payload (a cold
  store-backed run reads the payload it has just written).

Every chain fact comes from the chain's leaf — DER bytes, field-size row,
SAN byte share and, when known, the raw-DEFLATE length — plus one
:class:`ChainShape` shared by every chain with the same leaf issuer, leaf key
algorithm and non-leaf certificates.  A shard holds thousands of distinct
chains (every leaf names its domain) but only a handful of shapes.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..tls import cert_compression
from ..webpki.deployment import DomainDeployment
from ..webpki.skeleton import bloat_pool
from ..x509.ca import default_hierarchy
from ..x509.certificate import Certificate
from ..x509.chain import certificates_correctly_ordered, parent_chain_labels
from ..x509.field_sizes import field_size_row, san_byte_share
from ..x509.issuance import leaf_template
from ..x509.keys import KeyAlgorithm
from ..x509.name import DistinguishedName


def _certificate_entry(der: bytes) -> bytes:
    """One TLS 1.3 CertificateEntry: 3-byte length, DER, empty extensions."""
    return len(der).to_bytes(3, "big") + der + b"\x00\x00"


class ChainShape:
    """Leaf-independent facts of every chain with one leaf issuer, leaf key
    algorithm and non-leaf certificate tuple.

    The kernel scales these by how many delivered chains carry the shape (the
    shape-dedup contract, see docs/ARCHITECTURE.md): field-size rows and key
    algorithms of the parents, the Figure 7 group, and the parents' bytes for
    the chain fingerprint and the TLS payload.
    """

    __slots__ = (
        "parent_sizes", "parent_total", "parent_der", "parent_entries",
        "payload_base", "group_key", "row_counts", "alg_counts", "leaf_algorithm",
    )

    def __init__(
        self,
        leaf_issuer: DistinguishedName,
        leaf_algorithm: KeyAlgorithm,
        parents: Tuple[Certificate, ...],
    ) -> None:
        self.parent_sizes = tuple(cert.size for cert in parents)
        self.parent_total = sum(self.parent_sizes)
        #: The parents' DER, concatenated: a chain's fingerprint is SHA-256
        #: over its leaf DER and then these bytes.
        self.parent_der = b"".join(cert.der for cert in parents)
        #: The parents' CertificateEntries: a chain's TLS payload is the list
        #: length, the leaf's entry and then these bytes.
        self.parent_entries = b"".join(_certificate_entry(cert.der) for cert in parents)
        #: Payload length minus the leaf's DER length.
        self.payload_base = 3 + 5 + len(self.parent_entries)
        # Figure 7: a correctly ordered chain (leaf link included) groups
        # under its parent labels, or its leaf issuer when it has no parents;
        # any other chain is left out (None).
        ordered = certificates_correctly_ordered(parents) and (
            not parents or leaf_issuer.encode() == parents[0].subject.encode()
        )
        if not ordered:
            self.group_key: Optional[Tuple[str, ...]] = None
        elif parents:
            self.group_key = tuple(parent_chain_labels(parents))
        else:
            self.group_key = (leaf_issuer.common_name or "unknown",)
        row_counts: Dict[tuple, int] = {}
        alg_counts: Dict[KeyAlgorithm, int] = {}
        for cert in parents:
            row = field_size_row(cert)
            row_counts[row] = row_counts.get(row, 0) + 1
            algorithm = cert.key_algorithm
            alg_counts[algorithm] = alg_counts.get(algorithm, 0) + 1
        self.row_counts = row_counts
        self.alg_counts = alg_counts
        self.leaf_algorithm = leaf_algorithm


#: ``(CA profile, leaf key override, bloat extras, trim) -> (shape, size of
#: the leaf's fixed extensions)`` for chains issued from a chain spec.  The
#: CA hierarchy is a process singleton, so these are process-wide constants.
_SPEC_SHAPES: Dict[tuple, Tuple[ChainShape, int]] = {}


def spec_chain_shape(
    ca_profile: str,
    key_algorithm: Optional[KeyAlgorithm],
    bloat_extras: Tuple[int, ...],
    trim_to: Optional[int],
) -> Tuple[ChainShape, int]:
    """The shape of a chain spec's chain, and its leaf's fixed-extension size.

    Mirrors :meth:`~repro.webpki.skeleton.ChainSpec.assemble`: the profile's
    delivered chain, the bloat-pool extras, then the trim (which counts the
    leaf).  A spec-issued leaf's SAN size is its field-size row's extensions
    total minus the second value (see
    :func:`~repro.x509.issuance.deferred_san_size`).
    """
    key = (ca_profile, key_algorithm, bloat_extras, trim_to)
    cached = _SPEC_SHAPES.get(key)
    if cached is None:
        profile = default_hierarchy().profiles[ca_profile]
        template = leaf_template(
            profile.issuer, key_algorithm or profile.leaf_key_algorithm
        )
        parents = profile.delivered_chain
        if bloat_extras:
            pool = bloat_pool()
            parents = parents + tuple(pool[index] for index in bloat_extras)
        if trim_to is not None and len(parents) + 1 > trim_to:
            parents = parents[: trim_to - 1]
        shape = ChainShape(template.issuer_subject, template.key_algorithm, parents)
        cached = _SPEC_SHAPES[key] = (shape, template.fixed_extensions_size)
    return cached


class ShardColumns:
    """One scan shard as columns: the columnar kernel's only input.

    Row columns (one entry per deployment, in shard order): ``domains``,
    ``ranks``, ``providers``, ``categories``, ``rcodes``, ``addressed``
    (whether the deployment has an address), ``behaviors``,
    ``encapsulations``, ``redirects``, and ``https``/``quic`` — the row's
    chain indices, ``None`` where it delivers no such chain.  A QUIC service
    that delivers the HTTPS chain names the same index.

    Chain columns (one entry per chain index): ``leaf_ders``, ``field_rows``
    (the leaf's seven-field size row, flattened: chain ``c`` owns
    ``field_rows[7 * c : 7 * c + 7]``, whose last entry is the leaf's DER
    length), ``san_shares`` (the Figure 14 SAN byte share of the leaf),
    ``shapes`` and ``deflate_lens`` (0 until
    measured).  ``chains`` holds the lowered chain objects, or ``None`` for a
    record read from the store.

    ``deployment(row)`` materialises one row into its ``DomainDeployment``;
    the kernel calls it only for stage 5's spoof-target candidates.
    """

    __slots__ = (
        "domains", "ranks", "providers", "categories", "rcodes", "addressed",
        "behaviors", "encapsulations", "redirects", "https", "quic",
        "leaf_ders", "field_rows", "san_shares", "shapes", "deflate_lens",
        "chains", "deployment",
    )

    def __init__(self, deployment: Callable[[int], DomainDeployment]) -> None:
        for name in self.__slots__:
            setattr(self, name, [])
        self.chains: Optional[list] = None
        self.deployment = deployment

    def __len__(self) -> int:
        return len(self.domains)

    def total_size(self, chain: int) -> int:
        """Sum of the chain's certificate DER lengths."""
        return self.field_rows[7 * chain + 6] + self.shapes[chain].parent_total

    def payload_len(self, chain: int) -> int:
        """Length of the chain's TLS Certificate payload (RFC 8879 input)."""
        return self.field_rows[7 * chain + 6] + self.shapes[chain].payload_base

    def payload(self, chain: int) -> bytes:
        """The chain's TLS Certificate payload, as :func:`chain_payload` builds it."""
        leaf = self.leaf_ders[chain]
        parents = self.shapes[chain].parent_entries
        return b"".join(
            (
                (len(leaf) + 5 + len(parents)).to_bytes(3, "big"),
                _certificate_entry(leaf),
                parents,
            )
        )

    def digest(self, chain: int) -> bytes:
        """SHA-256 over the chain's certificate DERs (its fingerprint's bytes).

        A lowered chain answers from its own ``fingerprint`` memo, which the
        object path and every other grid member share.
        """
        if self.chains is not None:
            return bytes.fromhex(self.chains[chain].fingerprint)
        hasher = sha256(self.leaf_ders[chain])
        hasher.update(self.shapes[chain].parent_der)
        return hasher.digest()

    def deflate_len(self, chain: int) -> int:
        """Raw-DEFLATE length of the chain's payload, measured at most once.

        A lowered chain measures through its own memo
        (:func:`~repro.tls.cert_compression.chain_deflate_size`), which the
        object path shares; a store-read chain without a stored length (a
        file written under another zlib) compresses its payload here.
        """
        length = self.deflate_lens[chain]
        if not length:
            if self.chains is not None:
                length = cert_compression.chain_deflate_size(self.chains[chain])
            else:
                length = cert_compression.deflate_size(self.payload(chain))
            self.deflate_lens[chain] = length
        return length


def lower_deployments(deployments: Sequence[DomainDeployment]) -> ShardColumns:
    """Lower a deployment sequence into the kernel's :class:`ShardColumns`.

    Every chain slot gets its own chain index, except a QUIC service that
    delivers its HTTPS chain object, which shares the HTTPS index.  Shapes
    are keyed by content (leaf issuer DER, leaf key algorithm, parent DERs).
    """
    deployments = tuple(deployments)
    columns = ShardColumns(deployments.__getitem__)
    chains: list = []
    columns.chains = chains
    shapes: Dict[tuple, ChainShape] = {}
    leaf_ders = columns.leaf_ders
    field_rows = columns.field_rows
    san_shares = columns.san_shares
    chain_shapes = columns.shapes
    deflate_lens = columns.deflate_lens

    def add_chain(chain) -> int:
        certificates = chain.certificates
        leaf = certificates[0]
        parents = certificates[1:]
        algorithm = leaf.key_algorithm
        key = (leaf.issuer.encode(), algorithm, tuple(cert.der for cert in parents))
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = ChainShape(leaf.issuer, algorithm, parents)
        leaf_ders.append(leaf.der)
        field_rows.extend(field_size_row(leaf))
        san_shares.append(san_byte_share(leaf))
        chain_shapes.append(shape)
        deflate_lens.append(chain.__dict__.get("_deflate_size", 0))
        chains.append(chain)
        return len(chains) - 1

    for deployment in deployments:
        columns.domains.append(deployment.domain)
        columns.ranks.append(deployment.rank)
        columns.providers.append(deployment.provider)
        columns.categories.append(deployment.category)
        columns.rcodes.append(deployment.dns_rcode)
        columns.addressed.append(deployment.address is not None)
        columns.behaviors.append(deployment.server_behavior)
        columns.encapsulations.append(deployment.encapsulation_overhead)
        columns.redirects.append(deployment.redirect_to)
        https_chain = deployment.https_chain
        https = None if https_chain is None else add_chain(https_chain)
        quic_chain = deployment.quic_chain
        if quic_chain is None:
            quic = None
        elif quic_chain is https_chain:
            quic = https
        else:
            quic = add_chain(quic_chain)
        columns.https.append(https)
        columns.quic.append(quic)
    return columns
