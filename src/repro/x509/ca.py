"""Certificate-authority hierarchy model.

The paper's Figure 7 groups services by the *parent chain* (the intermediates
and optionally the root they deliver).  This module models the CA organisations
that dominate the Web PKI in 2022, with the key algorithms, name sizes and
chain shapes that give their chains the byte sizes the paper reports:

* Let's Encrypt: R3 / E1 intermediates under ISRG Root X1 (RSA-4096) and X2
  (ECDSA P-384); the R3-with-cross-signed-X1 variant that inflates chains.
* Google Trust Services: GTS CA 1C3 / 1D4 / 1P5 under GTS Root R1.
* Cloudflare: Cloudflare Inc ECC CA-3, a short ECDSA chain.
* Sectigo / USERTRUST / Comodo, DigiCert, GlobalSign, GoDaddy, Amazon,
  Starfield, cPanel: the RSA-heavy chains common for HTTPS-only services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asn1 import OID
from .certificate import Certificate, CertificateBuilder, Validity, serial_from_seed
from .chain import CertificateChain
from .extensions import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CertificatePolicies,
    CrlDistributionPoints,
    ExtendedKeyUsage,
    KeyUsage,
    SignedCertificateTimestamps,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
)
from .issuance import issue_leaf_certificate, leaf_template, slug as _slug
from .keys import KeyAlgorithm, PublicKey
from .name import DistinguishedName


@dataclass(frozen=True)
class CertificateAuthority:
    """A CA certificate plus the key it signs with."""

    certificate: Certificate
    key: PublicKey

    @property
    def subject(self) -> DistinguishedName:
        return self.certificate.subject

    @property
    def name(self) -> str:
        return self.certificate.subject.common_name or "unknown CA"


@dataclass(frozen=True)
class CAProfile:
    """Describes one parent-chain deployment option a hosting provider can pick.

    ``delivered_chain`` lists the CA certificates the server ships above the
    leaf, leaf-adjacent first.  ``issuer`` is the CA that signs leaves.
    """

    label: str
    issuer: CertificateAuthority
    delivered_chain: Tuple[Certificate, ...]
    leaf_key_algorithm: KeyAlgorithm
    includes_root: bool = False
    includes_cross_signed: bool = False

    @property
    def parent_chain_size(self) -> int:
        return sum(cert.size for cert in self.delivered_chain)

    def issue(
        self,
        domain: str,
        san_names: Optional[Sequence[str]] = None,
        validity_days: int = 90,
        key_algorithm: Optional[KeyAlgorithm] = None,
    ) -> CertificateChain:
        """Issue a leaf for ``domain`` and return the full delivered chain.

        Issuance runs through the template fast path of
        :mod:`repro.x509.issuance` — byte-identical to :func:`issue_leaf`, but
        the issuer-constant DER blocks are encoded once per
        ``(issuer, key algorithm)`` instead of once per leaf.
        """
        leaf = issue_leaf_certificate(
            leaf_template(self.issuer, key_algorithm or self.leaf_key_algorithm),
            domain,
            san_names if san_names is not None else (domain, f"www.{domain}"),
            validity_days=validity_days,
        )
        return CertificateChain((leaf,) + self.delivered_chain)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _make_root(
    common_name: str,
    organization: str,
    country: str,
    key_algorithm: KeyAlgorithm,
    extra_extension_bytes: int = 0,
) -> CertificateAuthority:
    subject = DistinguishedName.build(
        common_name=common_name, organization=organization, country=country
    )
    key = PublicKey(key_algorithm, owner=f"root:{common_name}")
    extensions = [
        BasicConstraints(ca=True, path_length=None),
        KeyUsage(key_cert_sign=True, crl_sign=True),
        SubjectKeyIdentifier(key.key_identifier()),
    ]
    builder = CertificateBuilder(
        subject=subject,
        issuer=subject,
        public_key=key,
        issuer_key=key,
        validity=Validity.for_days(365 * 20),
        serial_number=serial_from_seed(f"root:{common_name}"),
        extensions=extensions,
        is_ca=True,
    )
    return CertificateAuthority(builder.build(), key)


def _make_intermediate(
    parent: CertificateAuthority,
    common_name: str,
    organization: str,
    country: str,
    key_algorithm: KeyAlgorithm,
    with_policies: bool = True,
) -> CertificateAuthority:
    subject = DistinguishedName.build(
        common_name=common_name, organization=organization, country=country
    )
    key = PublicKey(key_algorithm, owner=f"ca:{common_name}")
    extensions = [
        BasicConstraints(ca=True, path_length=0),
        KeyUsage(digital_signature=True, key_cert_sign=True, crl_sign=True),
        SubjectKeyIdentifier(key.key_identifier()),
        AuthorityKeyIdentifier(parent.key.key_identifier()),
        ExtendedKeyUsage(),
        AuthorityInformationAccess(
            ocsp_url=f"http://ocsp.{_slug(organization)}.example",
            ca_issuers_url=f"http://crt.{_slug(organization)}.example/{_slug(common_name)}.der",
        ),
        CrlDistributionPoints([f"http://crl.{_slug(organization)}.example/{_slug(common_name)}.crl"]),
    ]
    if with_policies:
        extensions.append(CertificatePolicies(cps_url=f"https://cps.{_slug(organization)}.example"))
    builder = CertificateBuilder(
        subject=subject,
        issuer=parent.subject,
        public_key=key,
        issuer_key=parent.key,
        validity=Validity.for_days(365 * 5),
        serial_number=serial_from_seed(f"intermediate:{common_name}:{parent.name}"),
        extensions=extensions,
        is_ca=True,
    )
    return CertificateAuthority(builder.build(), key)


def _cross_sign(
    subject_ca: CertificateAuthority, signing_ca: CertificateAuthority
) -> Certificate:
    """Re-issue ``subject_ca``'s certificate under a different (legacy) root.

    This models e.g. *ISRG Root X1 signed by DST Root CA X3*, which some
    servers redundantly deliver instead of relying on the self-signed root in
    the client trust store (paper §4.2, rows 2 and 3 of Figure 7a).  Real
    cross-signs carry the issuing CA's operational extensions (CRL pointer),
    which makes them larger than a bare root.
    """
    signer_org = signing_ca.certificate.subject.organization or signing_ca.name
    extensions = [
        BasicConstraints(ca=True, path_length=None),
        KeyUsage(key_cert_sign=True, crl_sign=True),
        SubjectKeyIdentifier(subject_ca.key.key_identifier()),
        AuthorityKeyIdentifier(signing_ca.key.key_identifier()),
        CrlDistributionPoints([f"http://crl.{_slug(signer_org)}.example/root.crl"]),
    ]
    builder = CertificateBuilder(
        subject=subject_ca.subject,
        issuer=signing_ca.subject,
        public_key=subject_ca.key,
        issuer_key=signing_ca.key,
        validity=Validity.for_days(365 * 3),
        serial_number=serial_from_seed(f"cross:{subject_ca.name}:{signing_ca.name}"),
        extensions=extensions,
        is_ca=True,
    )
    return builder.build()


def issue_leaf(
    issuer: CertificateAuthority,
    domain: str,
    san_names: Optional[Sequence[str]] = None,
    validity_days: int = 90,
    key_algorithm: KeyAlgorithm = KeyAlgorithm.ECDSA_P256,
    sct_count: int = 2,
) -> Certificate:
    """Issue a leaf (end-entity) certificate for a domain."""
    if san_names is None:
        san_names = [domain, f"www.{domain}"]
    subject = DistinguishedName.build(common_name=domain)
    key = PublicKey(key_algorithm, owner=f"leaf:{domain}")
    issuer_org = issuer.certificate.subject.organization or issuer.name
    extensions = [
        KeyUsage(digital_signature=True, key_encipherment=key_algorithm.is_rsa, critical=True),
        ExtendedKeyUsage(),
        BasicConstraints(ca=False, critical=True),
        SubjectKeyIdentifier(key.key_identifier()),
        AuthorityKeyIdentifier(issuer.key.key_identifier()),
        AuthorityInformationAccess(
            ocsp_url=f"http://ocsp.{_slug(issuer_org)}.example",
            ca_issuers_url=f"http://crt.{_slug(issuer_org)}.example/{_slug(issuer.name)}.der",
        ),
        SubjectAlternativeName(list(san_names)),
        CertificatePolicies(policy_oids=(OID.DOMAIN_VALIDATED,)),
        SignedCertificateTimestamps(count=sct_count, log_seed=f"sct:{domain}"),
    ]
    builder = CertificateBuilder(
        subject=subject,
        issuer=issuer.subject,
        public_key=key,
        issuer_key=issuer.key,
        validity=Validity.for_days(validity_days),
        serial_number=serial_from_seed(f"leaf:{domain}:{issuer.name}"),
        extensions=extensions,
        is_ca=False,
        san_names=tuple(san_names),
    )
    return builder.build()


# ---------------------------------------------------------------------------
# The 2022 Web PKI hierarchy used by the population generator
# ---------------------------------------------------------------------------

@dataclass
class WebPkiHierarchy:
    """All roots, intermediates and deliverable chain profiles."""

    roots: Dict[str, CertificateAuthority] = field(default_factory=dict)
    intermediates: Dict[str, CertificateAuthority] = field(default_factory=dict)
    profiles: Dict[str, CAProfile] = field(default_factory=dict)


def build_hierarchy() -> WebPkiHierarchy:
    """Build the CA hierarchy and the named chain profiles used in the paper.

    Profile labels intentionally mirror the CA names in Figure 7 so the
    reproduction's figures can be read against the paper directly.
    """
    h = WebPkiHierarchy()

    # --- Roots -------------------------------------------------------------
    isrg_x1 = _make_root("ISRG Root X1", "Internet Security Research Group", "US", KeyAlgorithm.RSA_4096)
    isrg_x2 = _make_root("ISRG Root X2", "Internet Security Research Group", "US", KeyAlgorithm.ECDSA_P384)
    dst_x3 = _make_root("DST Root CA X3", "Digital Signature Trust Co.", "US", KeyAlgorithm.RSA_2048)
    gts_r1 = _make_root("GTS Root R1", "Google Trust Services LLC", "US", KeyAlgorithm.RSA_4096)
    baltimore = _make_root("Baltimore CyberTrust Root", "Baltimore", "IE", KeyAlgorithm.RSA_2048)
    usertrust = _make_root("USERTrust RSA Certification Authority", "The USERTRUST Network", "US", KeyAlgorithm.RSA_4096)
    comodo_root = _make_root("Comodo AAA Certificate Services", "Comodo CA Limited", "GB", KeyAlgorithm.RSA_2048)
    digicert_root = _make_root("DigiCert Global Root CA", "DigiCert Inc", "US", KeyAlgorithm.RSA_2048)
    globalsign_r3 = _make_root("GlobalSign Root CA - R3", "GlobalSign nv-sa", "BE", KeyAlgorithm.RSA_2048)
    godaddy_root = _make_root("Go Daddy Root Certificate Authority - G2", "GoDaddy.com, Inc.", "US", KeyAlgorithm.RSA_2048)
    amazon_root = _make_root("Amazon Root CA 1", "Amazon", "US", KeyAlgorithm.RSA_2048)
    starfield_root = _make_root("Starfield Services Root Certificate Authority - G2", "Starfield Technologies, Inc.", "US", KeyAlgorithm.RSA_2048)
    for root in (isrg_x1, isrg_x2, dst_x3, gts_r1, baltimore, usertrust, comodo_root,
                 digicert_root, globalsign_r3, godaddy_root, amazon_root, starfield_root):
        h.roots[root.name] = root

    # --- Intermediates -------------------------------------------------------
    le_r3 = _make_intermediate(isrg_x1, "R3", "Let's Encrypt", "US", KeyAlgorithm.RSA_2048)
    le_e1 = _make_intermediate(isrg_x2, "E1", "Let's Encrypt", "US", KeyAlgorithm.ECDSA_P384)
    gts_1c3 = _make_intermediate(gts_r1, "GTS CA 1C3", "Google Trust Services LLC", "US", KeyAlgorithm.RSA_2048)
    gts_1d4 = _make_intermediate(gts_r1, "GTS CA 1D4", "Google Trust Services LLC", "US", KeyAlgorithm.RSA_2048)
    gts_1p5 = _make_intermediate(gts_r1, "GTS CA 1P5", "Google Trust Services LLC", "US", KeyAlgorithm.RSA_2048)
    cloudflare_ecc = _make_intermediate(baltimore, "Cloudflare Inc ECC CA-3", "Cloudflare, Inc.", "US", KeyAlgorithm.ECDSA_P256)
    sectigo_dv = _make_intermediate(usertrust, "Sectigo RSA Domain Validation Secure Server CA", "Sectigo Limited", "GB", KeyAlgorithm.RSA_2048)
    sectigo_ecc = _make_intermediate(usertrust, "Sectigo ECC Domain Validation Secure Server CA", "Sectigo Limited", "GB", KeyAlgorithm.ECDSA_P256)
    cpanel = _make_intermediate(comodo_root, "cPanel, Inc. Certification Authority", "cPanel, Inc.", "US", KeyAlgorithm.RSA_2048)
    digicert_sha2 = _make_intermediate(digicert_root, "DigiCert SHA2 Secure Server CA", "DigiCert Inc", "US", KeyAlgorithm.RSA_2048)
    digicert_tls_rsa = _make_intermediate(digicert_root, "DigiCert TLS RSA SHA256 2020 CA1", "DigiCert Inc", "US", KeyAlgorithm.RSA_2048)
    globalsign_atlas = _make_intermediate(globalsign_r3, "GlobalSign Atlas R3 DV TLS CA H2 2021", "GlobalSign nv-sa", "BE", KeyAlgorithm.RSA_2048)
    godaddy_g2 = _make_intermediate(godaddy_root, "Go Daddy Secure Certificate Authority - G2", "GoDaddy.com, Inc.", "US", KeyAlgorithm.RSA_2048)
    amazon_rsa_m02 = _make_intermediate(amazon_root, "Amazon RSA 2048 M02", "Amazon", "US", KeyAlgorithm.RSA_2048)
    starfield_g2 = _make_intermediate(starfield_root, "Starfield Secure Certificate Authority - G2", "Starfield Technologies, Inc.", "US", KeyAlgorithm.RSA_2048)
    for ca in (le_r3, le_e1, gts_1c3, gts_1d4, gts_1p5, cloudflare_ecc, sectigo_dv,
               sectigo_ecc, cpanel, digicert_sha2, digicert_tls_rsa, globalsign_atlas,
               godaddy_g2, amazon_rsa_m02, starfield_g2):
        h.intermediates[ca.name] = ca

    # Cross-signed ISRG Root X1 (signed by DST Root CA X3), the chain-bloating
    # companion cert Let's Encrypt ships in its "long chain" default.
    isrg_x1_cross = _cross_sign(isrg_x1, dst_x3)
    # Amazon intermediates are cross-signed below Starfield G2 in the long chain.
    amazon_root_cross = _cross_sign(amazon_root, starfield_root)

    # --- Deliverable chain profiles (the Figure 7 rows) ----------------------
    def add(label: str, issuer: CertificateAuthority, delivered: Tuple[Certificate, ...],
            leaf_alg: KeyAlgorithm, includes_root: bool = False, cross: bool = False) -> None:
        h.profiles[label] = CAProfile(
            label=label,
            issuer=issuer,
            delivered_chain=delivered,
            leaf_key_algorithm=leaf_alg,
            includes_root=includes_root,
            includes_cross_signed=cross,
        )

    # QUIC-dominant profiles (Figure 7a)
    add("Let's Encrypt E1 (short)", le_e1, (le_e1.certificate,), KeyAlgorithm.ECDSA_P256)
    add("Let's Encrypt R3 (short)", le_r3, (le_r3.certificate,), KeyAlgorithm.RSA_2048)
    add("Let's Encrypt R3 + cross-signed X1", le_r3,
        (le_r3.certificate, isrg_x1_cross), KeyAlgorithm.RSA_2048, cross=True)
    add("Let's Encrypt R3 + root X1", le_r3,
        (le_r3.certificate, isrg_x1.certificate), KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("Let's Encrypt E1 + X2", le_e1, (le_e1.certificate, isrg_x2.certificate),
        KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("Google 1C3", gts_1c3, (gts_1c3.certificate, gts_r1.certificate),
        KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("Google 1D4", gts_1d4, (gts_1d4.certificate, gts_r1.certificate),
        KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("Google 1P5", gts_1p5, (gts_1p5.certificate, gts_r1.certificate),
        KeyAlgorithm.RSA_2048, includes_root=True)
    add("Cloudflare ECC CA-3", cloudflare_ecc, (cloudflare_ecc.certificate,), KeyAlgorithm.ECDSA_P256)
    add("Sectigo ECC DV", sectigo_ecc, (sectigo_ecc.certificate, usertrust.certificate),
        KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("GlobalSign Atlas R3 DV", globalsign_atlas, (globalsign_atlas.certificate,), KeyAlgorithm.RSA_2048)
    add("cPanel / Comodo", cpanel, (cpanel.certificate, comodo_root.certificate),
        KeyAlgorithm.RSA_2048, includes_root=True)

    # HTTPS-only-dominant profiles (Figure 7b)
    add("Sectigo RSA DV / USERTRUST", sectigo_dv, (sectigo_dv.certificate, usertrust.certificate),
        KeyAlgorithm.RSA_2048, includes_root=True)
    add("DigiCert SHA2", digicert_sha2, (digicert_sha2.certificate,), KeyAlgorithm.RSA_2048)
    add("DigiCert SHA2 + root (Meta)", digicert_sha2,
        (digicert_sha2.certificate, digicert_root.certificate),
        KeyAlgorithm.ECDSA_P256, includes_root=True)
    add("DigiCert TLS RSA 2020", digicert_tls_rsa, (digicert_tls_rsa.certificate,), KeyAlgorithm.RSA_2048)
    add("GoDaddy G2", godaddy_g2, (godaddy_g2.certificate, godaddy_root.certificate),
        KeyAlgorithm.RSA_2048, includes_root=True)
    add("Amazon RSA 2048 M02 (long)", amazon_rsa_m02,
        (amazon_rsa_m02.certificate, amazon_root_cross, starfield_g2.certificate),
        KeyAlgorithm.RSA_2048, cross=True)
    add("Amazon RSA 2048 M02 (short)", amazon_rsa_m02, (amazon_rsa_m02.certificate,), KeyAlgorithm.RSA_2048)
    add("Starfield G2 + root", starfield_g2, (starfield_g2.certificate, starfield_root.certificate),
        KeyAlgorithm.RSA_2048, includes_root=True)

    # A long tail of smaller, regional CAs.  The paper's Figure 7(b) shows that
    # HTTPS-only services are far less consolidated than QUIC services (top-10
    # chains cover 72 % vs 96.5 %); these profiles provide that diversity.
    parent_roots = (usertrust, comodo_root, digicert_root, globalsign_r3, godaddy_root, baltimore)
    for index in range(1, REGIONAL_CA_COUNT + 1):
        parent = parent_roots[index % len(parent_roots)]
        regional = _make_intermediate(
            parent,
            f"Regional DV CA R{index}",
            f"Regional Trust Services {index}",
            "US" if index % 2 else "DE",
            KeyAlgorithm.RSA_2048,
        )
        h.intermediates[regional.name] = regional
        if index % 2 == 0:
            delivered = (regional.certificate, parent.certificate)
            add(f"Regional DV #{index}", regional, delivered, KeyAlgorithm.RSA_2048,
                includes_root=True)
        else:
            add(f"Regional DV #{index}", regional, (regional.certificate,), KeyAlgorithm.RSA_2048)

    return h


#: Number of long-tail regional CA profiles generated by :func:`build_hierarchy`.
REGIONAL_CA_COUNT = 40

#: Profile labels of the regional long-tail CAs (for archetype pools).
def regional_profile_labels() -> List[str]:
    return [f"Regional DV #{index}" for index in range(1, REGIONAL_CA_COUNT + 1)]


_HIERARCHY_CACHE: Optional[WebPkiHierarchy] = None


def default_hierarchy() -> WebPkiHierarchy:
    """A process-wide cached hierarchy (it is deterministic and immutable)."""
    global _HIERARCHY_CACHE
    if _HIERARCHY_CACHE is None:
        _HIERARCHY_CACHE = build_hierarchy()
    return _HIERARCHY_CACHE
