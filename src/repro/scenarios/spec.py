"""Scenario specifications: every experiment knob in one frozen, serializable value.

The paper's most actionable results are counterfactuals — how many deployments
would move into the 1-RTT / non-amplifying class if certificate compression
were universal, chains were trimmed, or clients sent larger Initials.  A
:class:`ScenarioSpec` bundles all the knobs such a what-if experiment turns —
population fractions, the CA-chain/key-algorithm mix, compression adoption,
server-behaviour profile substitutions, the client's analysis Initial size —
into one named value that travels through the whole pipeline:

* :meth:`ScenarioSpec.population_config` derives the
  :class:`~repro.webpki.population.PopulationConfig` (fraction overrides
  applied, the spec embedded in ``config.scenario``), which is the single
  object every generation and scan path already threads.
* The population generator applies :meth:`transform_skeletons` to each shard's
  phase-1 skeletons *after* the RNG stream has been consumed.  Transforms are
  pure rewrites that draw no randomness, so the per-shard RNG contract of
  ``(seed, shard_index)`` is untouched: for transform-only scenarios the same
  seed denotes the same domains, DNS outcomes, archetypes and addresses as
  baseline (``population_overrides``, by contrast, change the config *before*
  generation and deliberately denote a different population), and the
  ``baseline-2022`` identity scenario is byte-for-byte the plain pipeline.
* :meth:`fingerprint` is stamped into every streamed
  :class:`~repro.scanners.streaming.ShardSummary`;
  :class:`~repro.scanners.streaming.CampaignReducer` refuses to merge
  summaries reduced under different scenarios.
* :func:`repro.analysis.report.build_report` stamps any non-identity scenario
  into the report header (the identity scenario renders the legacy header, so
  golden digests stay pinned).

Specs are plain frozen dataclasses of primitives: hashable, picklable (they
ride inside :class:`~repro.scanners.sharding.ShardTask` into worker
processes) and JSON round-trippable for sharing scenario files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.limits import MAX_INITIAL_SIZE_AT_MTU_1500, MIN_INITIAL_SIZE
from ..quic.profiles import (
    BUILTIN_PROFILES,
    ServerBehaviorProfile,
    with_universal_compression,
    without_compression,
)
from ..tls.cert_compression import CertificateCompressionAlgorithm
from ..x509.keys import KeyAlgorithm

_KEY_ALGORITHMS_BY_LABEL: Dict[str, KeyAlgorithm] = {
    algorithm.label: algorithm for algorithm in KeyAlgorithm
}

_COMPRESSION_BY_LABEL: Dict[str, CertificateCompressionAlgorithm] = {
    algorithm.label: algorithm for algorithm in CertificateCompressionAlgorithm
}


class ScenarioError(ValueError):
    """A scenario is unknown, malformed, or inconsistent with its campaign."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One named what-if experiment over the reproduction pipeline.

    Every knob defaults to "leave the baseline alone"; a spec with no knob set
    (:attr:`is_identity`) reproduces the plain pipeline byte-for-byte.
    """

    name: str
    #: Human-readable one-liner shown by ``repro scenarios`` and stamped into
    #: reports; never part of the :meth:`fingerprint`.
    description: str = ""
    #: ``(field, value)`` overrides applied over the default
    #: :class:`~repro.webpki.population.PopulationConfig` fractions (e.g.
    #: ``(("no_compression_fraction", 0.0),)``).  ``size``/``seed``/``scenario``
    #: are campaign parameters, not scenario knobs, and are rejected.
    population_overrides: Tuple[Tuple[str, float], ...] = ()
    #: Force every issued leaf onto this key algorithm (``None``: keep the
    #: archetype-drawn mix).
    leaf_key_algorithm: Optional[KeyAlgorithm] = None
    #: Deliver at most this many certificates per chain (leaf first); drops
    #: superfluous roots, cross-signs and bloat duplicates.  ``None``: keep
    #: chains as issued.
    trim_chain_depth: Optional[int] = None
    #: Give every server behaviour profile RFC 8879 support (brotli) — the
    #: server half of the "universal certificate compression" counterfactual.
    universal_compression: bool = False
    #: RFC 8879 algorithms the scanning *client* offers during the single-size
    #: analysis scan.  The paper's scanner (and therefore the baseline)
    #: offered none, so server-side support only shows up in the Table 1
    #: support scan; a universal-adoption counterfactual offers brotli here so
    #: compressed flights actually shift the handshake-class funnel.
    client_compression: Tuple[CertificateCompressionAlgorithm, ...] = ()
    #: ``(profile name, replacement name)`` substitutions over the built-in
    #: server behaviour profiles (e.g. ``(("mvfst-like", "mvfst-patched"),)``).
    profile_overrides: Tuple[Tuple[str, str], ...] = ()
    #: Client Initial size used for the single-size analysis scan (``None``:
    #: the pipeline default, 1362 bytes).
    analysis_initial_size: Optional[int] = None
    #: Fraction of servers that deploy RFC 8879 certificate compression —
    #: the *partial*-adoption counterfactual behind adoption-curve sweeps.
    #: Adopters gain brotli; every *other* server has compression stripped
    #: (several baseline stacks already link a capable TLS library, so
    #: without stripping the curve's low end would not be a no-compression
    #: world).  Selection is a deterministic, RNG-free hash of the domain
    #: name and is monotone in the fraction: a domain that adopts at 30%
    #: still adopts at 40%, so grid points nest the way a real rollout
    #: would.  ``None`` keeps the baseline mix; ``1.0`` is equivalent
    #: (wire-byte-for-wire-byte) to :attr:`universal_compression`, which
    #: supersedes this knob when both are set.  Like the other knobs this
    #: only flips *server* support; pair it with ``client_compression`` so
    #: compressed flights actually happen.
    compression_adoption: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("a scenario needs a non-empty name")
        # Normalise mapping-typed knobs (sorted by key) so equality is
        # canonical: a spec equals its own JSON round-trip however the caller
        # ordered the pairs.
        object.__setattr__(
            self,
            "population_overrides",
            tuple(sorted(tuple(item) for item in self.population_overrides)),
        )
        object.__setattr__(
            self,
            "profile_overrides",
            tuple(sorted(tuple(item) for item in self.profile_overrides)),
        )
        for label, pairs in (
            ("population_overrides", self.population_overrides),
            ("profile_overrides", self.profile_overrides),
        ):
            keys = [key for key, _ in pairs]
            if len(keys) != len(set(keys)):
                duplicates = sorted({key for key in keys if keys.count(key) > 1})
                raise ScenarioError(
                    f"scenario {self.name!r}: duplicate {label} key(s): "
                    f"{', '.join(duplicates)}"
                )
        object.__setattr__(self, "client_compression", tuple(self.client_compression))
        for algorithm in self.client_compression:
            if not isinstance(algorithm, CertificateCompressionAlgorithm):
                raise ScenarioError(
                    f"scenario {self.name!r}: client_compression entries must be "
                    f"CertificateCompressionAlgorithm values (got {algorithm!r})"
                )
        if self.trim_chain_depth is not None and (
            not isinstance(self.trim_chain_depth, int)
            or isinstance(self.trim_chain_depth, bool)
            or self.trim_chain_depth < 1
        ):
            raise ScenarioError(
                f"scenario {self.name!r}: trim_chain_depth must be an integer >= 1 "
                f"(got {self.trim_chain_depth!r})"
            )
        if self.analysis_initial_size is not None and (
            not isinstance(self.analysis_initial_size, int)
            or isinstance(self.analysis_initial_size, bool)
            or not (MIN_INITIAL_SIZE <= self.analysis_initial_size <= MAX_INITIAL_SIZE_AT_MTU_1500)
        ):
            raise ScenarioError(
                f"scenario {self.name!r}: analysis_initial_size must be an integer "
                f"within [{MIN_INITIAL_SIZE}, {MAX_INITIAL_SIZE_AT_MTU_1500}] "
                f"(got {self.analysis_initial_size!r})"
            )
        if self.compression_adoption is not None:
            if (
                not isinstance(self.compression_adoption, (int, float))
                or isinstance(self.compression_adoption, bool)
                or not (0.0 <= self.compression_adoption <= 1.0)
            ):
                raise ScenarioError(
                    f"scenario {self.name!r}: compression_adoption must be a "
                    f"fraction within [0.0, 1.0] (got {self.compression_adoption!r})"
                )
            # Normalise to float so 0 and 0.0 fingerprint identically.
            object.__setattr__(
                self, "compression_adoption", float(self.compression_adoption)
            )
        for source, target in self.profile_overrides:
            if source not in BUILTIN_PROFILES:
                raise ScenarioError(
                    f"scenario {self.name!r}: profile override source {source!r} "
                    f"is not a built-in server behaviour profile"
                )
            if target not in BUILTIN_PROFILES:
                raise ScenarioError(
                    f"scenario {self.name!r}: profile override target {target!r} "
                    f"is not a built-in server behaviour profile"
                )
        for key, value in self.population_overrides:
            if key in ("size", "seed", "scenario"):
                raise ScenarioError(
                    f"scenario {self.name!r}: {key!r} is a campaign parameter, "
                    f"not a scenario population knob"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(
                    f"scenario {self.name!r}: population override {key!r} must "
                    f"be a number (got {value!r})"
                )

    # -- identity and fingerprinting -------------------------------------------

    @property
    def is_identity(self) -> bool:
        """True when no knob is set: the pipeline behaves exactly as baseline."""
        return (
            not self.population_overrides
            and self.leaf_key_algorithm is None
            and self.trim_chain_depth is None
            and not self.universal_compression
            and not self.client_compression
            and not self.profile_overrides
            and self.analysis_initial_size is None
            and self.compression_adoption is None
        )

    def canonical_dict(self) -> Dict[str, object]:
        """The fingerprinted knob set (description excluded: it is cosmetic)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "population": {key: value for key, value in self.population_overrides},
            "leaf_key_algorithm": (
                self.leaf_key_algorithm.label if self.leaf_key_algorithm else None
            ),
            "trim_chain_depth": self.trim_chain_depth,
            "universal_compression": self.universal_compression,
            "client_compression": [algorithm.label for algorithm in self.client_compression],
            "profile_overrides": {source: target for source, target in self.profile_overrides},
            "analysis_initial_size": self.analysis_initial_size,
        }
        # Knobs that postdate the fingerprint format join the canonical dict
        # only when set, so every pre-existing spec — baseline included —
        # keeps its fingerprint (and therefore its golden digests, checkpoint
        # addresses and report stamps) byte-for-byte.
        if self.compression_adoption is not None:
            payload["compression_adoption"] = self.compression_adoption
        return payload

    def fingerprint(self) -> str:
        """SHA-256 over the canonical knob set.

        Stamped into every :class:`~repro.scanners.streaming.ShardSummary` so
        the reducer can reject merges of shards scanned under different
        scenarios.  Memoized on the frozen instance.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            payload = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
            cached = hashlib.sha256(payload).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload = self.canonical_dict()
        payload["description"] = self.description
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        if not isinstance(payload, dict):
            raise ScenarioError(f"a scenario must be a JSON object, not {type(payload).__name__}")
        known = {
            "name", "description", "population", "leaf_key_algorithm",
            "trim_chain_depth", "universal_compression", "client_compression",
            "profile_overrides", "analysis_initial_size", "compression_adoption",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ScenarioError(f"unknown scenario field(s): {', '.join(unknown)}")
        key_label = payload.get("leaf_key_algorithm")
        leaf_key_algorithm = None
        if key_label is not None:
            leaf_key_algorithm = _KEY_ALGORITHMS_BY_LABEL.get(str(key_label))
            if leaf_key_algorithm is None:
                raise ScenarioError(
                    f"unknown leaf_key_algorithm {key_label!r} "
                    f"(known: {', '.join(sorted(_KEY_ALGORITHMS_BY_LABEL))})"
                )
        population = payload.get("population") or {}
        profile_overrides = payload.get("profile_overrides") or {}
        if not isinstance(population, dict) or not isinstance(profile_overrides, dict):
            raise ScenarioError("'population' and 'profile_overrides' must be JSON objects")
        raw_compression = payload.get("client_compression") or []
        if not isinstance(raw_compression, (list, tuple)):
            raise ScenarioError(
                "'client_compression' must be a JSON array of algorithm labels "
                f"(got {raw_compression!r})"
            )
        client_compression: List[CertificateCompressionAlgorithm] = []
        for label in raw_compression:
            algorithm = _COMPRESSION_BY_LABEL.get(str(label))
            if algorithm is None:
                raise ScenarioError(
                    f"unknown client_compression algorithm {label!r} "
                    f"(known: {', '.join(sorted(_COMPRESSION_BY_LABEL))})"
                )
            client_compression.append(algorithm)
        return cls(
            name=str(payload.get("name", "")),
            description=str(payload.get("description", "")),
            population_overrides=tuple(sorted(population.items())),
            leaf_key_algorithm=leaf_key_algorithm,
            trim_chain_depth=payload.get("trim_chain_depth"),
            universal_compression=bool(payload.get("universal_compression", False)),
            client_compression=tuple(client_compression),
            profile_overrides=tuple(sorted(profile_overrides.items())),
            analysis_initial_size=payload.get("analysis_initial_size"),
            compression_adoption=payload.get("compression_adoption"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ScenarioError(f"cannot read scenario file {path!r}: {error}") from error
        return cls.from_json(text)

    # -- deriving the population config ----------------------------------------

    def population_config(self, size: Optional[int] = None, seed: Optional[int] = None,
                          base=None):
        """Derive the :class:`PopulationConfig` this scenario scans.

        Fraction overrides are applied over ``base`` (default: the baseline
        defaults), ``size``/``seed`` are taken from the arguments (or kept
        from ``base``), and the spec itself is embedded as
        ``config.scenario`` so every generation path downstream applies the
        skeleton transform without further plumbing.
        """
        from ..webpki.population import PopulationConfig

        base = base if base is not None else PopulationConfig()
        embedded = getattr(base, "scenario", None)
        if embedded is not None and embedded != self:
            raise ScenarioError(
                f"population config already carries scenario {embedded.name!r}; "
                f"refusing to re-derive it for {self.name!r}"
            )
        valid = {field.name for field in dataclasses.fields(PopulationConfig)}
        overrides: Dict[str, object] = {}
        for key, value in self.population_overrides:
            if key not in valid:
                raise ScenarioError(
                    f"scenario {self.name!r} overrides unknown population knob {key!r}"
                )
            overrides[key] = value
        if size is not None:
            overrides["size"] = size
        if seed is not None:
            overrides["seed"] = seed
        try:
            return dataclasses.replace(base, scenario=self, **overrides)
        except ValueError as error:
            # PopulationConfig.__post_init__ sanity checks (fraction sums etc.)
            # surface as the scenario's problem: it supplied the overrides.
            raise ScenarioError(
                f"scenario {self.name!r} derives an invalid population config: {error}"
            ) from error

    # -- the skeleton transform (phase 1.5) ------------------------------------

    def _profile_map(self) -> Dict[str, ServerBehaviorProfile]:
        cached = getattr(self, "_profile_map_cache", None)
        if cached is None:
            cached = {
                source: BUILTIN_PROFILES[target]
                for source, target in self.profile_overrides
            }
            object.__setattr__(self, "_profile_map_cache", cached)
        return cached

    def adopts_compression(self, domain: str) -> bool:
        """Whether ``domain`` deploys RFC 8879 under this scenario's adoption fraction.

        Deterministic and RNG-free (a SHA-256 of the domain mapped onto
        ``[0, 1)``), so it composes with the per-shard RNG contract exactly
        like every other skeleton transform.  Monotone in
        :attr:`compression_adoption`: the adopter set at fraction *f* is a
        subset of the set at any *f' > f*.
        """
        if self.compression_adoption is None:
            return False
        if self.compression_adoption >= 1.0:
            return True
        digest = hashlib.sha256(
            f"compression-adoption:{domain}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.compression_adoption

    def transform_server_behavior(
        self, behavior: Optional[ServerBehaviorProfile]
    ) -> Optional[ServerBehaviorProfile]:
        """Apply profile substitutions and compression adoption to one profile."""
        if behavior is None:
            return None
        replacement = self._profile_map().get(behavior.name)
        if replacement is not None:
            behavior = replacement
        if self.universal_compression:
            behavior = with_universal_compression(behavior)
        return behavior

    def _transform_chain_spec(self, spec):
        if spec is None:
            return None
        changes: Dict[str, object] = {}
        if (
            self.leaf_key_algorithm is not None
            and spec.key_algorithm is not self.leaf_key_algorithm
        ):
            changes["key_algorithm"] = self.leaf_key_algorithm
        if self.trim_chain_depth is not None and spec.trim_to != self.trim_chain_depth:
            # The recorded bloat extras are kept: materialisation appends them
            # before trimming, so a trim depth larger than the base chain
            # still caps (rather than erases) the bloated-chain tail.
            changes["trim_to"] = self.trim_chain_depth
        return dataclasses.replace(spec, **changes) if changes else spec

    def transform_skeleton(self, skeleton):
        """Rewrite one phase-1 deployment skeleton under this scenario.

        Pure and randomness-free: the skeleton pass has already consumed the
        shard's RNG stream, so rewriting recorded chain specs and behaviour
        profiles cannot shift any other domain's draws.  Identity knobs return
        the input object unchanged.
        """
        changes: Dict[str, object] = {}
        behavior = self.transform_server_behavior(skeleton.server_behavior)
        if (
            behavior is not None
            and not self.universal_compression
            and self.compression_adoption is not None
        ):
            # Partial adoption is per-domain, so it lives here (where the
            # domain is known) rather than in transform_server_behavior.
            # Both helpers are lru_cached: every (non-)adopter of the same
            # base profile shares one substituted instance, keeping the
            # flight-plan and columnar caches keyed identically.
            if self.adopts_compression(skeleton.domain):
                behavior = with_universal_compression(behavior)
            else:
                behavior = without_compression(behavior)
        if behavior is not skeleton.server_behavior:
            changes["server_behavior"] = behavior
        for attribute in ("https_spec", "quic_spec"):
            spec = getattr(skeleton, attribute)
            transformed = self._transform_chain_spec(spec)
            if transformed is not spec:
                changes[attribute] = transformed
        return dataclasses.replace(skeleton, **changes) if changes else skeleton

    def transform_skeletons(self, skeletons: Sequence) -> List:
        """Rewrite a whole shard's skeletons (no-op for identity scenarios)."""
        if self.is_identity:
            return list(skeletons)
        return [self.transform_skeleton(skeleton) for skeleton in skeletons]
