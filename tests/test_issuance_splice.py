"""Spliced leaf issuance against the from-scratch reference ``issue_leaf``.

``issue_leaf_fast`` splices per-domain bytes into framing encoded once per
template or key algorithm and returns them as bytes; ``issue_leaf_certificate``
wraps its output into a ``Certificate``.  A splice is only right if every length it
assumes fixed really is, so this property test drives it over every CA
profile × every key algorithm with the inputs that move lengths: domains and
SAN names long enough for long-form DER lengths (128 bytes and up),
multi-byte UTF-8 domains, 1–100 SANs and several validity spans.  Beyond the
DER it checks what the fast path stores on the objects it returns: the
field-size row and every memoized encoding must equal both the reference's
and a fresh recomputation from the structured fields, and the byte kernel's
``(der, row)`` must equal the wrapper's.
"""

from __future__ import annotations

import dataclasses
import hashlib

from hypothesis import given, settings, strategies as st

from repro.x509.ca import default_hierarchy, issue_leaf
from repro.x509.certificate import Certificate
from repro.x509.extensions import Extension
from repro.x509.field_sizes import measure_field_sizes
from repro.x509.issuance import issue_leaf_certificate, issue_leaf_fast, leaf_template
from repro.x509.keys import KeyAlgorithm, PublicKey
from repro.x509.name import DistinguishedName

_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-."


def _names(alphabet: str, min_size: int, max_size: int):
    return st.text(alphabet=alphabet, min_size=min_size, max_size=max_size)


#: Short names, and names whose own TLV needs a long-form length.
_ascii_name = st.one_of(_names(_LABEL_CHARS, 1, 40), _names(_LABEL_CHARS, 128, 260))
#: Domains additionally carry multi-byte UTF-8 (byte length != char length).
_domain = st.one_of(_ascii_name, _names(_LABEL_CHARS + "éß漢", 1, 140))

_PROFILE_LABELS = tuple(default_hierarchy().profiles)


def _fresh_row(certificate: Certificate) -> tuple:
    """The field-size row recomputed from the structured fields alone."""
    copy = Certificate(
        **{field.name: getattr(certificate, field.name) for field in dataclasses.fields(Certificate)}
    )
    return tuple(dataclasses.astuple(measure_field_sizes(copy)))


def _assert_memos(fast: Certificate, reference: Certificate) -> None:
    subject = fast.subject
    assert subject._encoded == reference.subject._encoded
    assert subject._encoded == DistinguishedName(subject.rdns).encode()

    key = fast.public_key
    fresh_spki = PublicKey(key.algorithm, key.owner)._build_spki_der()
    assert key._spki_der == reference.public_key._spki_der == fresh_spki
    assert key._key_identifier == reference.public_key._key_identifier
    assert key._key_identifier == hashlib.sha256(fresh_spki).digest()[:20]

    for mine, theirs in zip(fast.extensions, reference.extensions, strict=True):
        fresh = Extension(mine.oid, mine.critical, mine.value).encode()
        assert mine._encoded == theirs.encode() == fresh, mine.oid.dotted


@settings(max_examples=150, deadline=None)
@given(
    label=st.sampled_from(_PROFILE_LABELS),
    algorithm=st.sampled_from(tuple(KeyAlgorithm)),
    domain=_domain,
    san_names=st.lists(_ascii_name, min_size=1, max_size=100),
    validity_days=st.sampled_from((1, 90, 365, 397, 825, 3650)),
)
def test_spliced_leaf_equals_reference_issue_leaf(
    label, algorithm, domain, san_names, validity_days
):
    issuer = default_hierarchy().profiles[label].issuer
    reference = issue_leaf(
        issuer=issuer,
        domain=domain,
        san_names=san_names,
        validity_days=validity_days,
        key_algorithm=algorithm,
    )
    template = leaf_template(issuer, algorithm)
    fast = issue_leaf_certificate(template, domain, san_names, validity_days)
    der, row, _ = issue_leaf_fast(template, domain, san_names, validity_days)

    assert der == fast.der == reference.der
    assert row == fast._field_size_row
    assert fast.tbs_der == reference.tbs_der
    assert fast.signature_value == reference.signature_value
    assert fast.serial_number == reference.serial_number
    assert fast == reference
    assert fast.san_names == reference.san_names
    assert fast._field_size_row == reference._field_size_row == _fresh_row(fast)
    _assert_memos(fast, reference)


def test_every_profile_and_key_algorithm_with_long_form_lengths():
    """The exhaustive corner the property test samples: all pairs, long names."""
    domain = "long-" + "a" * 150 + ".example"
    san_names = [domain] + [f"n{i}-" + "b" * 130 + ".example" for i in range(3)]
    for label, profile in default_hierarchy().profiles.items():
        for algorithm in KeyAlgorithm:
            reference = issue_leaf(
                issuer=profile.issuer,
                domain=domain,
                san_names=san_names,
                validity_days=397,
                key_algorithm=algorithm,
            )
            template = leaf_template(profile.issuer, algorithm)
            fast = issue_leaf_certificate(template, domain, san_names, 397)
            der, row, _ = issue_leaf_fast(template, domain, san_names, 397)
            assert der == fast.der == reference.der, (label, algorithm)
            assert row == fast._field_size_row == reference._field_size_row, (label, algorithm)
            _assert_memos(fast, reference)
