"""Durable shard checkpoints: content-addressed persistence of ``ShardSummary``.

A streamed campaign is exactly a set of independent, order-insensitively
mergeable :class:`~repro.scanners.streaming.ShardSummary` objects — tiny,
picklable and scenario-fingerprinted.  This module persists each one to disk
as it is reduced, so an interrupted 1M-domain run resumes in seconds instead
of restarting from zero:

* **Content-addressed filenames.**  A checkpoint's name embeds a digest of
  ``(seed, population size, shard size, scenario fingerprint, shard index)``
  (:class:`CheckpointKey`), so a directory can never silently mix summaries
  from different campaigns: a resume only ever loads files whose name matches
  the campaign it is resuming.
* **Atomic, self-verifying files.**  Every checkpoint is written tmp-file +
  ``os.replace`` (:mod:`repro.core.ioutil`) with a header carrying the format
  version, payload length and payload SHA-256.  A torn, truncated, bit-rotted
  or stale-format file fails verification on load, is moved into a
  ``quarantine/`` subdirectory (never deleted — it is evidence) and its shard
  is simply re-scanned; a checkpoint is an optimisation, never a source of
  truth the pipeline must trust.
* **Campaign metadata.**  ``campaign.json`` records which campaign a
  directory belongs to; binding a different ``(seed, size, shard size,
  scenario)`` to the same directory is rejected with an actionable error
  instead of quietly interleaving incompatible artifacts.
* **Incomplete manifests.**  When a run gives up (shard retries exhausted) it
  writes ``incomplete.json`` naming exactly which shard indices are missing —
  a failed campaign is loudly partial, never silently so.  Byte-identity of
  finished reports stays absolute: the reducer and
  :meth:`~repro.scanners.orchestrator.MeasurementCampaign.finalize_streaming`
  re-check scenario fingerprints at the resume seam.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from ..core.ioutil import (
    SelfVerifyingFormatError,
    atomic_write_bytes,
    atomic_write_text,
    decode_self_verifying,
    encode_self_verifying,
    quarantine_file,
)
from ..errors import ReproError
from ..scenarios import BASELINE
from ..webpki.population import PopulationConfig

#: Checkpoint file format tag; bump on any incompatible layout change so old
#: files are quarantined (and regenerated) instead of misparsed.
CHECKPOINT_FORMAT = b"repro-ckpt/1"

#: Name of the per-directory campaign metadata file.
CAMPAIGN_METADATA_FILENAME = "campaign.json"

#: Name of the manifest written when a run ends with missing shards.
INCOMPLETE_MANIFEST_FILENAME = "incomplete.json"

#: Subdirectory failed-verification checkpoints are moved into.
QUARANTINE_DIRNAME = "quarantine"


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint directory cannot be used for this campaign."""


def scenario_fingerprint_of(config: PopulationConfig) -> str:
    """The scenario fingerprint a campaign over ``config`` stamps into shards."""
    return (config.scenario or BASELINE).fingerprint()


@dataclass(frozen=True)
class CheckpointKey:
    """The content address of one shard's checkpoint."""

    seed: int
    size: int
    shard_size: int
    scenario_fingerprint: str
    index: int

    def digest(self) -> str:
        material = (
            f"{self.seed}|{self.size}|{self.shard_size}|"
            f"{self.scenario_fingerprint}|{self.index}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def filename(self) -> str:
        return f"shard-{self.index:06d}-{self.digest()}.ckpt"

    @classmethod
    def for_campaign(
        cls, config: PopulationConfig, shard_size: int, index: int
    ) -> "CheckpointKey":
        return cls(
            seed=config.seed,
            size=config.size,
            shard_size=shard_size,
            scenario_fingerprint=scenario_fingerprint_of(config),
            index=index,
        )


def encode_checkpoint(summary: object) -> bytes:
    """Serialise a shard summary with the self-verifying header."""
    payload = pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
    return encode_self_verifying(CHECKPOINT_FORMAT, payload)


def decode_checkpoint(data: bytes) -> object:
    """Verify and deserialise checkpoint bytes.

    Raises :class:`CheckpointError` on any defect — missing or malformed
    header, unknown format version, length mismatch (truncation) or digest
    mismatch (corruption).  Callers quarantine on failure.
    """
    try:
        payload = decode_self_verifying(CHECKPOINT_FORMAT, data, label="checkpoint")
    except SelfVerifyingFormatError as error:
        raise CheckpointError(str(error)) from error
    try:
        return pickle.loads(payload)
    except Exception as error:  # pickle raises a zoo of types on bad input
        raise CheckpointError(f"checkpoint payload does not unpickle: {error}") from error


class CheckpointStore:
    """One directory of shard checkpoints for one campaign."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            raise CheckpointError(
                f"checkpoint directory {directory!r} cannot be created ({error})"
            ) from error
        # Highest retry attempt that has written each filename, for the
        # last-write-safe guard in :meth:`save`.
        self._saved_attempts: Dict[str, int] = {}

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: CheckpointKey) -> str:
        return os.path.join(self.directory, key.filename())

    @property
    def quarantine_directory(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIRNAME)

    @property
    def metadata_path(self) -> str:
        return os.path.join(self.directory, CAMPAIGN_METADATA_FILENAME)

    @property
    def incomplete_manifest_path(self) -> str:
        return os.path.join(self.directory, INCOMPLETE_MANIFEST_FILENAME)

    # -- campaign binding ------------------------------------------------------

    def _campaign_metadata(self, config: PopulationConfig, shard_size: int) -> Dict:
        return {
            "format": CHECKPOINT_FORMAT.decode("ascii"),
            "seed": config.seed,
            "size": config.size,
            "shard_size": shard_size,
            "scenario_fingerprint": scenario_fingerprint_of(config),
            "scenario": (config.scenario or BASELINE).name,
        }

    def bind_campaign(self, config: PopulationConfig, shard_size: int) -> None:
        """Claim this directory for one campaign (or verify an existing claim).

        A directory whose ``campaign.json`` names a different ``(seed, size,
        shard size, scenario)`` is rejected: resuming — or checkpointing into
        — it would interleave summaries that can never merge.
        """
        self._verify_or_claim(self._campaign_metadata(config, shard_size))

    def bind_grid(self, config: PopulationConfig, shard_size: int, grid) -> None:
        """Claim this directory for one scenario-grid campaign (or verify it).

        The binding is relaxed relative to :meth:`bind_campaign`: it pins
        ``(seed, size, shard_size, grid fingerprint)`` — what every member of
        the sweep shares — while the member scenarios themselves stay
        content-addressed per checkpoint file.  The grid fingerprint is
        order- and name-insensitive (:meth:`ScenarioGrid.fingerprint`), so a
        reordered or renamed sweep over the same member set resumes cleanly;
        the grid name and member list are written for humans but not matched.
        """
        expected = {
            "format": CHECKPOINT_FORMAT.decode("ascii"),
            "seed": config.seed,
            "size": config.size,
            "shard_size": shard_size,
            "grid_fingerprint": grid.fingerprint(),
        }
        self._verify_or_claim(
            expected,
            extra={"grid": grid.name, "scenarios": sorted(grid.member_names)},
        )

    def _verify_or_claim(self, expected: Dict, extra: Optional[Dict] = None) -> None:
        if os.path.exists(self.metadata_path):
            try:
                with open(self.metadata_path, "r", encoding="utf-8") as handle:
                    found = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise CheckpointError(
                    f"checkpoint directory {self.directory!r} has an unreadable "
                    f"{CAMPAIGN_METADATA_FILENAME} ({error}); use a fresh directory"
                ) from error
            mismatched = sorted(
                name
                for name, value in expected.items()
                if found.get(name) != value
            )
            if mismatched:
                described = ", ".join(
                    f"{name}: {found.get(name)!r} != {expected[name]!r}"
                    for name in mismatched
                )
                raise CheckpointError(
                    f"checkpoint directory {self.directory!r} belongs to a "
                    f"different campaign ({described}); point --checkpoint-dir at "
                    "a fresh directory or rerun with the original parameters"
                )
        else:
            payload = dict(expected)
            payload.update(extra or {})
            try:
                atomic_write_text(
                    self.metadata_path,
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                )
            except OSError as error:
                raise CheckpointError(
                    f"checkpoint directory {self.directory!r} cannot be claimed "
                    f"({error})"
                ) from error

    # -- save/load -------------------------------------------------------------

    def save(self, key: CheckpointKey, summary: object, attempt: int = 0) -> str:
        """Atomically persist one shard summary; returns the checkpoint path.

        ``attempt`` is the retry attempt that produced ``summary``.  A save
        from an attempt older than one already persisted for the same file is
        skipped (the existing path is returned): if a timed-out attempt's
        result surfaces after its retry already checkpointed, the stale bytes
        can never clobber the newer ones.  Equal or newer attempts overwrite
        as before — shard summaries are deterministic per attempt, so the
        guard only suppresses genuinely out-of-order writes.

        A write that fails (a full or read-only disk) raises
        :class:`CheckpointError` naming the file; checkpoints written before
        it stay valid, so a later ``--resume`` picks up from them.
        """
        path = self.path_for(key)
        persisted = self._saved_attempts.get(path)
        if persisted is not None and attempt < persisted:
            return path
        try:
            atomic_write_bytes(path, encode_checkpoint(summary))
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {path!r} cannot be written ({error})"
            ) from error
        self._saved_attempts[path] = attempt
        return path

    def quarantine(self, path: str) -> str:
        """Move a failed-verification file into ``quarantine/`` (kept, not trusted)."""
        return quarantine_file(path, self.quarantine_directory)

    def load(self, key: CheckpointKey) -> Optional[object]:
        """Load one shard's checkpoint, or ``None`` if absent or invalid.

        Any defect — bad header, truncation, corruption, stale format, or a
        summary whose shard index / scenario fingerprint does not match the
        key (a renamed or foreign file) — quarantines the file and returns
        ``None``, so the caller re-scans the shard.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        try:
            summary = decode_checkpoint(data)
        except CheckpointError:
            self.quarantine(path)
            return None
        if (
            getattr(summary, "index", None) != key.index
            or getattr(summary, "scenario_fingerprint", None)
            != key.scenario_fingerprint
        ):
            self.quarantine(path)
            return None
        return summary

    def load_valid(
        self,
        config: PopulationConfig,
        shard_size: int,
        shard_indices: Iterable[int],
    ) -> Dict[int, object]:
        """All valid checkpoints of this campaign among ``shard_indices``."""
        loaded: Dict[int, object] = {}
        for index in shard_indices:
            summary = self.load(CheckpointKey.for_campaign(config, shard_size, index))
            if summary is not None:
                loaded[index] = summary
        return loaded

    # -- completion manifests --------------------------------------------------

    def write_incomplete_manifest(
        self, completed: Sequence[int], incomplete: Sequence[int]
    ) -> str:
        """Record exactly which shards a failed run is missing."""
        payload = {
            "completed": sorted(completed),
            "incomplete": sorted(incomplete),
        }
        atomic_write_text(
            self.incomplete_manifest_path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        return self.incomplete_manifest_path

    def clear_incomplete_manifest(self) -> None:
        """Drop a stale failure manifest once a run completes every shard."""
        try:
            os.unlink(self.incomplete_manifest_path)
        except FileNotFoundError:
            pass
