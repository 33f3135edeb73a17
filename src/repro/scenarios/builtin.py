"""Built-in scenarios: the 2022 baseline plus the paper's what-if campaigns.

Each entry answers one counterfactual question the paper raises but a single
reproduction run cannot: what moves into the 1-RTT / non-amplifying class if
the ecosystem changes?  Run one with ``repro campaign --scenario NAME`` (or a
JSON file in the same shape as :meth:`ScenarioSpec.to_json`), list them with
``repro scenarios``, and diff several with
:func:`repro.scenarios.compare_grid`.
"""

from __future__ import annotations

import os
from typing import Dict

from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..x509.keys import KeyAlgorithm
from .spec import ScenarioError, ScenarioSpec

#: The identity scenario: the paper's 2022 Internet exactly as the seed
#: reproduction calibrates it.  Guaranteed byte-identical to running the
#: pipeline with no scenario at all (tests/test_golden_report.py pins the
#: artefact digests; tests/test_scenarios.py pins the equivalence).
BASELINE = ScenarioSpec(
    name="baseline-2022",
    description=(
        "The 2022 baseline as measured by the paper; identity scenario, "
        "byte-identical to running without --scenario."
    ),
)

#: Precomputed fingerprint a scenario-less pipeline stamps into summaries.
BASELINE_FINGERPRINT = BASELINE.fingerprint()

UNIVERSAL_COMPRESSION = ScenarioSpec(
    name="universal-compression",
    description=(
        "What if RFC 8879 were universal? Every server gains brotli support "
        "and the scanning client offers it, so compressed flights shift the "
        "handshake-class funnel."
    ),
    universal_compression=True,
    client_compression=(CertificateCompressionAlgorithm.BROTLI,),
)

ECDSA_ONLY = ScenarioSpec(
    name="ecdsa-only",
    description=(
        "What if every leaf certificate used an ECDSA P-256 key instead of "
        "the observed RSA-heavy mix?"
    ),
    leaf_key_algorithm=KeyAlgorithm.ECDSA_P256,
)

TRIMMED_CHAINS = ScenarioSpec(
    name="trimmed-chains",
    description=(
        "What if servers delivered lean two-certificate chains — no "
        "superfluous roots, cross-signs or duplicated intermediates?"
    ),
    trim_chain_depth=2,
)

LARGE_INITIALS = ScenarioSpec(
    name="large-initials",
    description=(
        "What if clients sent 1400-byte Initials instead of the Firefox-like "
        "1362 bytes, buying every server a larger amplification budget?"
    ),
    analysis_initial_size=1400,
)

MVFST_PATCHED_WORLD = ScenarioSpec(
    name="mvfst-patched",
    description=(
        "What if Meta's October 2022 mvfst fix had shipped before the scans? "
        "No more retransmission storms towards unvalidated clients."
    ),
    profile_overrides=(("mvfst-like", "mvfst-patched"),),
)

BUILTIN_SCENARIOS: Dict[str, ScenarioSpec] = {
    scenario.name: scenario
    for scenario in (
        BASELINE,
        UNIVERSAL_COMPRESSION,
        ECDSA_ONLY,
        TRIMMED_CHAINS,
        LARGE_INITIALS,
        MVFST_PATCHED_WORLD,
    )
}


def load_scenario(name_or_path: str) -> ScenarioSpec:
    """Resolve a scenario by built-in name or JSON file path.

    Built-in names win; anything that looks like (or is) a file on disk is
    parsed as a scenario JSON file.  Unknown names raise a
    :class:`ScenarioError` that lists the built-ins.
    """
    scenario = BUILTIN_SCENARIOS.get(name_or_path)
    if scenario is not None:
        return scenario
    if os.path.exists(name_or_path) or name_or_path.endswith(".json"):
        return ScenarioSpec.from_file(name_or_path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}: not a built-in "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}) and not a scenario JSON file"
    )
