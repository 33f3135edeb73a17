"""Certificate chains as delivered by TLS servers.

A chain is the ordered list the server sends: leaf first, then intermediates
towards (but normally excluding) the trust anchor.  The paper analyses chain
sizes, depth, ordering mistakes, superfluous root inclusion and redundant
cross-signed certificates — all of which this module can represent and detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..caching import cached_property  # lock-free (see repro.caching)
from typing import Iterator, List, Optional, Sequence, Tuple

from .certificate import Certificate


def certificates_correctly_ordered(certificates: Sequence[Certificate]) -> bool:
    """True when each certificate is issued by the next one in the list.

    Module-level so the columnar scan backend can check the shared non-leaf
    suffix of a chain once per distinct parent tuple and reuse the verdict
    across every chain delivering it (the leaf link is checked separately).
    """
    for child, parent in zip(certificates, certificates[1:]):
        if child.issuer.encode() != parent.subject.encode():
            return False
    return True


def parent_chain_labels(non_leaf: Sequence[Certificate]) -> List[str]:
    """The Figure 7 labels of a chain's non-leaf certificates (leaf-to-root).

    Pure function of the non-leaf suffix — :meth:`CertificateChain.
    parent_chain_key` adds the leaf-issuer fallback for leaf-only chains.
    Extracting it lets the columnar backend compute the labels once per
    distinct parent tuple instead of once per chain.
    """
    labels: List[str] = []
    for index, cert in enumerate(non_leaf):
        label = cert.subject.common_name or cert.subject.organization or "unknown"
        issued_by_later = any(
            cert.issuer.encode() == later.subject.encode() for later in non_leaf[index + 1 :]
        )
        if not cert.is_self_signed and not issued_by_later and index == len(non_leaf) - 1:
            issuer_label = cert.issuer.common_name or cert.issuer.organization or "unknown"
            if issuer_label != label and index > 0:
                label = f"{label} (cross-signed)"
        labels.append(label)
    return labels


@dataclass(frozen=True)
class CertificateChain:
    """The certificate list a server delivers during the handshake."""

    certificates: Tuple[Certificate, ...]

    def __post_init__(self) -> None:
        if not self.certificates:
            raise ValueError("a certificate chain must contain at least one certificate")

    # -- structure ---------------------------------------------------------

    @property
    def leaf(self) -> Certificate:
        return self.certificates[0]

    @property
    def depth(self) -> int:
        """Number of certificates delivered."""
        return len(self.certificates)

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self.certificates)

    def __len__(self) -> int:
        return len(self.certificates)

    # -- sizes ---------------------------------------------------------------

    @cached_property
    def total_size(self) -> int:
        """Sum of DER sizes of all delivered certificates."""
        return sum(cert.size for cert in self.certificates)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the concatenated DER encodings (cached; chains are immutable)."""
        import hashlib

        digest = hashlib.sha256()
        for cert in self.certificates:
            digest.update(cert.der)
        return digest.hexdigest()

    @property
    def leaf_size(self) -> int:
        return self.leaf.size

    # -- hygiene checks (paper §4.2) ----------------------------------------

    def is_correctly_ordered(self) -> bool:
        """True when each certificate is issued by the next one in the list."""
        return certificates_correctly_ordered(self.certificates)

    def includes_trust_anchor(self) -> bool:
        """True when the server superfluously ships a self-signed root."""
        return any(cert.is_self_signed for cert in self.certificates)

    def includes_cross_signed(self, trust_anchor_names: Optional[Sequence[str]] = None) -> bool:
        """True when a delivered CA cert is a cross-signed variant of a trust anchor.

        A cross-signed certificate carries the *subject* of a root that clients
        already trust (e.g. ISRG Root X1) but is signed by a different, legacy
        root — shipping it is superfluous for modern clients.  Detection
        therefore needs to know which subjects are trust anchors; by default
        the root names of :func:`repro.x509.ca.default_hierarchy` are used.
        """
        if trust_anchor_names is None:
            from .ca import default_hierarchy  # local import to avoid a cycle

            trust_anchor_names = tuple(default_hierarchy().roots)
        anchors = {name for name in trust_anchor_names}
        for cert in self.certificates[1:]:
            if cert.is_self_signed or not cert.is_ca:
                continue
            subject_name = cert.subject.common_name or cert.subject.organization
            if subject_name in anchors:
                return True
        return False

    # -- identity of the parent chain (for Figure 7 grouping) -----------------

    def parent_chain_key(self) -> Tuple[str, ...]:
        """A hashable identity of the non-leaf chain: subject CNs from leaf up.

        A cross-signed certificate (same subject as a root, but not
        self-signed and not issued by anything else in the chain) is labelled
        explicitly so that e.g. the Let's Encrypt chain shipping the
        cross-signed ISRG Root X1 groups separately from the one shipping the
        self-signed root — the paper's Figure 7 distinguishes these rows.
        """
        labels = parent_chain_labels(self.certificates[1:])
        if not labels:
            labels.append(self.leaf.issuer.common_name or "unknown")
        return tuple(labels)

    # -- convenience ----------------------------------------------------------

    def sizes_by_depth(self) -> Tuple[int, ...]:
        return tuple(cert.size for cert in self.certificates)


def chain_fingerprint(chain: CertificateChain) -> str:
    """Stable identity for deduplicating identical delivered chains."""
    return chain.fingerprint

