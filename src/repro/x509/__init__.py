"""X.509 v3 certificate substrate.

The modules in this package build real DER-encoded certificates from Python
descriptions (names, keys, extensions, validity) so that all byte sizes used by
the analysis — the quantity the paper's results hinge on — come from actual
encodings rather than constants.

Private-key material is *modelled*, not generated: we produce public keys and
signatures with the correct structure and the byte lengths dictated by the
chosen algorithm (RSA-2048/3072/4096, ECDSA P-256/P-384), filled with
deterministic pseudo-random bytes.  This keeps certificate generation fast for
populations of hundreds of thousands of domains while being byte-exact where it
matters.
"""

from .keys import KeyAlgorithm, PublicKey, SignatureAlgorithm
from .name import DistinguishedName, RelativeName
from .extensions import (
    Extension,
    BasicConstraints,
    KeyUsage,
    ExtendedKeyUsage,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
    AuthorityKeyIdentifier,
    AuthorityInformationAccess,
    CertificatePolicies,
    CrlDistributionPoints,
    SignedCertificateTimestamps,
)
from .certificate import Certificate, CertificateBuilder, Validity
from .chain import CertificateChain
from .field_sizes import CertificateFieldSizes, measure_field_sizes
from .ca import CertificateAuthority, CAProfile, issue_leaf, build_hierarchy

__all__ = [
    "KeyAlgorithm",
    "SignatureAlgorithm",
    "PublicKey",
    "DistinguishedName",
    "RelativeName",
    "Extension",
    "BasicConstraints",
    "KeyUsage",
    "ExtendedKeyUsage",
    "SubjectAlternativeName",
    "SubjectKeyIdentifier",
    "AuthorityKeyIdentifier",
    "AuthorityInformationAccess",
    "CertificatePolicies",
    "CrlDistributionPoints",
    "SignedCertificateTimestamps",
    "Validity",
    "Certificate",
    "CertificateBuilder",
    "CertificateChain",
    "CertificateFieldSizes",
    "measure_field_sizes",
    "CertificateAuthority",
    "CAProfile",
    "issue_leaf",
    "build_hierarchy",
]
