"""Scenario grids: ordered scenario sets that sweep in one shared campaign.

A :class:`ScenarioGrid` names an ordered collection of :class:`ScenarioSpec`s
that are meant to run over the *same* ``(seed, size)`` population — the shape
of every counterfactual sweep the paper gestures at ("how much RFC 8879
adoption until median amplification drops below 3×?").  Because scenarios are
pure post-RNG skeleton transforms, one shard visit builds the shard's
baseline skeletons once and replays every non-identity member transform
against them (:func:`repro.scanners.streaming.run_streaming_grid_scan`, on
the same shard driver as single-scenario runs): an N-member grid costs one
generation plus N scans instead of N of each.

Grids are built three ways, all JSON-round-trippable:

* an explicit scenario list (built-in names, scenario files, or inline specs);
* an *axis product*: scalar knob axes expanded over a base scenario, e.g.
  ``{"axes": {"compression_adoption": [0.0, 0.5, 1.0],
  "trim_chain_depth": [null, 2]}}`` → 6 scenarios;
* a built-in grid name (:data:`BUILTIN_GRIDS`) — ``compression-adoption`` is
  the canonical 0→100%-in-10%-steps adoption curve, ``what-ifs`` bundles
  every built-in scenario.

:meth:`ScenarioGrid.fingerprint` hashes the *set* of member fingerprints
(order-insensitive: reordering a sweep does not invalidate its checkpoints).
``campaign.json`` in a grid checkpoint directory binds ``(seed, size,
shard_size, grid_fingerprint)``, and per-shard checkpoint files stay addressed
by their member scenario's own fingerprint — so one checkpoint directory
holds the whole grid and a resume dispatches only the missing
``(shard, scenario)`` pairs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..tls.cert_compression import CertificateCompressionAlgorithm
from .builtin import BUILTIN_SCENARIOS, load_scenario
from .spec import ScenarioError, ScenarioSpec

#: Scenario knobs an axis may sweep: everything a spec serialises except its
#: identity fields.  Values pass through :meth:`ScenarioSpec.from_dict`, so
#: axis entries use the JSON shapes (labels for enums, objects for mappings).
AXIS_FIELDS = (
    "population",
    "leaf_key_algorithm",
    "trim_chain_depth",
    "universal_compression",
    "client_compression",
    "profile_overrides",
    "analysis_initial_size",
    "compression_adoption",
)


def _axis_value_label(value: object) -> str:
    """Deterministic short label for one axis value, used in member names."""
    if value is None:
        return "off"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return "+".join(str(item) for item in value) or "none"
    if isinstance(value, dict):
        return "+".join(f"{k}-{v}" for k, v in sorted(value.items())) or "none"
    return str(value)


@dataclass(frozen=True)
class ScenarioGrid:
    """An ordered, uniquely-named scenario set swept over one population."""

    name: str
    description: str = ""
    scenarios: Tuple[ScenarioSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("a scenario grid needs a non-empty name")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ScenarioError(f"scenario grid {self.name!r} has no scenarios")
        for scenario in self.scenarios:
            if not isinstance(scenario, ScenarioSpec):
                raise ScenarioError(
                    f"scenario grid {self.name!r}: members must be ScenarioSpec "
                    f"values (got {scenario!r})"
                )
        names = [scenario.name for scenario in self.scenarios]
        if len(names) != len(set(names)):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ScenarioError(
                f"scenario grid {self.name!r}: duplicate member name(s): "
                f"{', '.join(duplicates)}"
            )
        fingerprints = [scenario.fingerprint() for scenario in self.scenarios]
        if len(fingerprints) != len(set(fingerprints)):
            raise ScenarioError(
                f"scenario grid {self.name!r}: two members share a fingerprint "
                f"(identical knob sets under different names are still one "
                f"campaign — drop the duplicate)"
            )

    # -- identity --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(scenario.name for scenario in self.scenarios)

    def fingerprint(self) -> str:
        """SHA-256 over the sorted member fingerprints.

        Order-insensitive and name-insensitive at the grid level: the campaign
        a grid denotes is exactly the set of member scenario campaigns, so two
        grids over the same members bind the same checkpoint directory even if
        the sweep was reordered or renamed between runs.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            payload = json.dumps(
                {
                    "format": "scenario-grid/1",
                    "scenarios": sorted(s.fingerprint() for s in self.scenarios),
                },
                sort_keys=True,
            ).encode("utf-8")
            cached = hashlib.sha256(payload).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The explicit (axis-expanded) JSON form; round-trips via from_dict."""
        return {
            "name": self.name,
            "description": self.description,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioGrid":
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"a scenario grid must be a JSON object, not {type(payload).__name__}"
            )
        known = {"name", "description", "scenarios", "base", "axes"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ScenarioError(f"unknown scenario grid field(s): {', '.join(unknown)}")
        name = str(payload.get("name", ""))
        members: List[ScenarioSpec] = []
        raw_scenarios = payload.get("scenarios") or []
        if not isinstance(raw_scenarios, (list, tuple)):
            raise ScenarioError(
                "'scenarios' must be a JSON array of scenario names or objects "
                f"(got {raw_scenarios!r})"
            )
        for entry in raw_scenarios:
            members.append(_resolve_member(entry))
        if "axes" in payload:
            members.extend(
                _expand_axes(
                    base=_resolve_member(payload.get("base", "baseline-2022")),
                    axes=payload["axes"],
                )
            )
        return cls(
            name=name,
            description=str(payload.get("description", "")),
            scenarios=tuple(members),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioGrid":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario grid is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioGrid":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ScenarioError(
                f"cannot read scenario grid file {path!r}: {error}"
            ) from error
        return cls.from_json(text)


def _resolve_member(entry: object) -> ScenarioSpec:
    """One grid member: a built-in name / scenario file path, or an inline spec."""
    if isinstance(entry, str):
        return load_scenario(entry)
    if isinstance(entry, dict):
        return ScenarioSpec.from_dict(entry)
    raise ScenarioError(
        f"grid scenarios must be names or scenario objects (got {entry!r})"
    )


def _expand_axes(base: ScenarioSpec, axes: object) -> List[ScenarioSpec]:
    """Cartesian product of scalar knob axes over ``base``, in axis order."""
    if not isinstance(axes, dict) or not axes:
        raise ScenarioError(
            "'axes' must be a non-empty JSON object mapping scenario knobs to "
            f"value arrays (got {axes!r})"
        )
    unknown = sorted(set(axes) - set(AXIS_FIELDS))
    if unknown:
        raise ScenarioError(
            f"unknown grid axis knob(s): {', '.join(unknown)} "
            f"(sweepable: {', '.join(AXIS_FIELDS)})"
        )
    keys = list(axes)
    for key in keys:
        if not isinstance(axes[key], (list, tuple)) or not axes[key]:
            raise ScenarioError(
                f"grid axis {key!r} must be a non-empty JSON array of values "
                f"(got {axes[key]!r})"
            )
    members: List[ScenarioSpec] = []
    base_payload = base.to_dict()
    for combo in itertools.product(*(axes[key] for key in keys)):
        payload = dict(base_payload)
        suffix = []
        for key, value in zip(keys, combo):
            payload[key] = value
            suffix.append(f"{key}={_axis_value_label(value)}")
        payload["name"] = base.name + "".join(f"+{part}" for part in suffix)
        payload["description"] = (
            f"{base.name} with " + ", ".join(suffix)
        )
        members.append(ScenarioSpec.from_dict(payload))
    return members


# ---------------------------------------------------------------------------
# Built-in grids
# ---------------------------------------------------------------------------

def _adoption_point(percent: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"compression-adoption-{percent:03d}",
        description=(
            f"{percent}% of servers deploy RFC 8879 brotli (deterministic "
            f"per-domain adoption); the scanning client offers brotli."
        ),
        compression_adoption=percent / 100,
        client_compression=(CertificateCompressionAlgorithm.BROTLI,),
    )


#: The paper's counterfactual asked properly: server-side RFC 8879 adoption
#: swept 0→100% in 10% steps, client offering brotli throughout.  Feed it to
#: ``repro compare --grid compression-adoption`` for its outcome table, one
#: row per adoption fraction.
COMPRESSION_ADOPTION_GRID = ScenarioGrid(
    name="compression-adoption",
    description=(
        "Server RFC 8879 adoption swept 0%→100% in 10% steps "
        "(client offers brotli at every point)."
    ),
    scenarios=tuple(_adoption_point(percent) for percent in range(0, 101, 10)),
)

#: Every built-in scenario as one shared-generation sweep — the 6-scenario
#: grid the benchmark harness amortises against 6 independent campaigns.
WHAT_IF_GRID = ScenarioGrid(
    name="what-ifs",
    description="The 2022 baseline plus every built-in what-if scenario.",
    scenarios=tuple(BUILTIN_SCENARIOS.values()),
)

BUILTIN_GRIDS: Dict[str, ScenarioGrid] = {
    grid.name: grid for grid in (COMPRESSION_ADOPTION_GRID, WHAT_IF_GRID)
}


def load_grid(spec: str) -> ScenarioGrid:
    """Resolve a grid from a built-in name, a JSON file, or a scenario list.

    Resolution order mirrors :func:`load_scenario`: built-in grid names win;
    anything that looks like (or is) a file on disk is parsed as a grid JSON
    file; a comma-separated list of scenario names/files becomes an ad-hoc
    explicit grid (named after the list itself).
    """
    grid = BUILTIN_GRIDS.get(spec)
    if grid is not None:
        return grid
    if os.path.exists(spec) or spec.endswith(".json"):
        return ScenarioGrid.from_file(spec)
    if "," in spec or spec in BUILTIN_SCENARIOS:
        return scenario_list_grid(spec)
    raise ScenarioError(
        f"unknown scenario grid {spec!r}: not a built-in grid "
        f"({', '.join(sorted(BUILTIN_GRIDS))}), not a grid JSON file, and not "
        f"a comma-separated scenario list"
    )


def scenario_list_grid(spec: str) -> ScenarioGrid:
    """An ad-hoc grid, named after ``spec``, from a comma-separated list.

    Every entry resolves through :func:`load_scenario` (a built-in name or a
    single-scenario JSON file), so ``"my.json"`` is a one-member grid here
    where :func:`load_grid` would parse it as a grid file.
    """
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ScenarioError("scenario grid list is empty")
    return ScenarioGrid(
        name=spec,
        description="ad-hoc grid from a scenario list",
        scenarios=tuple(load_scenario(name) for name in names),
    )
