"""Deterministic fault injection for durability testing.

Crashes are the one campaign input the pipeline cannot derive from a seed —
unless they are planned.  A :class:`FaultPlan` scripts exactly when things go
wrong: a worker raises, dies by SIGKILL or stalls past the dispatch timeout
(keyed by ``(shard index, attempt number)``, so "crash once, succeed on
retry" is expressible), a freshly written checkpoint is corrupted or
truncated on disk, or the whole run is killed right after a shard's
checkpoint lands (the CI kill-and-resume smoke).  Because every fault is
keyed deterministically, the recovery paths in
:func:`~repro.scanners.streaming.run_streaming_scan` can be pinned by
byte-identity tests: an injected run must end in exactly the report an
uninterrupted run produces.

Plans are plain frozen dataclasses of primitives — picklable (they ride
inside worker payloads) and JSON round-trippable, so the CLI
(``repro campaign --fault-plan plan.json``) and the ``REPRO_FAULT_PLAN``
environment variable (a path, or inline JSON starting with ``{``) can arm
one without code.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ReproError

#: Fault kinds a worker can suffer while scanning a shard.
WORKER_FAULT_KINDS = ("raise", "kill", "stall")

#: Fault kinds applied to a shard's checkpoint right after it is written
#: (``kill-run`` terminates the whole parent process instead — the
#: interrupted-campaign fault the resume path recovers from).
CHECKPOINT_FAULT_KINDS = ("corrupt", "truncate", "kill-run")


class FaultPlanError(ReproError, ValueError):
    """A fault plan is malformed (unknown kind, bad JSON, missing keys)."""


class InjectedFault(RuntimeError):
    """Raised inside a worker by a ``raise``-kind fault."""


@dataclass(frozen=True)
class WorkerFault:
    """One scripted in-worker failure, keyed by shard index and attempt."""

    shard: int
    attempt: int
    kind: str
    #: ``stall`` only: how long the worker sleeps mid-shard.  Pick a value
    #: larger than the dispatcher's per-shard timeout to trigger it.
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown worker fault kind {self.kind!r} "
                f"(expected one of {', '.join(WORKER_FAULT_KINDS)})"
            )


@dataclass(frozen=True)
class CheckpointFault:
    """One scripted post-checkpoint failure, keyed by shard index.

    ``attempt`` optionally narrows the fault to the checkpoint written by one
    specific retry attempt; ``None`` (the default, and the legacy JSON shape)
    fires on every attempt's checkpoint.
    """

    shard: int
    kind: str
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in CHECKPOINT_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown checkpoint fault kind {self.kind!r} "
                f"(expected one of {', '.join(CHECKPOINT_FAULT_KINDS)})"
            )


def corrupt_file(path: str) -> None:
    """Flip one byte in the middle of ``path`` (a torn/bit-rotted artifact).

    The flip lands past the checkpoint header, so the file still *looks* like
    a checkpoint — exactly the case the embedded digest must catch.
    """
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        offset = size // 2
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def truncate_file(path: str) -> None:
    """Cut ``path`` to half its size (an interrupted write without atomicity)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures for one campaign run."""

    worker: Tuple[WorkerFault, ...] = ()
    checkpoint: Tuple[CheckpointFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "worker", tuple(self.worker))
        object.__setattr__(self, "checkpoint", tuple(self.checkpoint))

    # -- lookup ---------------------------------------------------------------

    def worker_fault(self, shard: int, attempt: int) -> Optional[WorkerFault]:
        for fault in self.worker:
            if fault.shard == shard and fault.attempt == attempt:
                return fault
        return None

    def inject_worker_fault(self, shard: int, attempt: int) -> None:
        """Execute the scripted fault for this ``(shard, attempt)``, if any.

        Runs inside the worker process, before the shard is scanned.
        ``raise`` throws :class:`InjectedFault`; ``kill`` SIGKILLs the worker
        (breaking the whole pool, the ``BrokenProcessPool`` recovery path);
        ``stall`` sleeps so a per-shard dispatch timeout fires.
        """
        fault = self.worker_fault(shard, attempt)
        if fault is None:
            return
        if fault.kind == "raise":
            raise InjectedFault(
                f"injected worker fault: shard {shard}, attempt {attempt}"
            )
        if fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault.kind == "stall":
            time.sleep(fault.stall_seconds)

    def apply_checkpoint_faults(self, shard: int, path: str, attempt: int = 0) -> None:
        """Execute the scripted post-checkpoint faults for ``shard``.

        Runs in the parent right after the shard's checkpoint is persisted:
        ``corrupt``/``truncate`` damage the file on disk (a later ``--resume``
        must detect, quarantine and re-scan), ``kill-run`` SIGKILLs the whole
        process mid-campaign, leaving the directory exactly as a crash would.
        ``attempt`` is the retry attempt whose checkpoint just landed; faults
        carrying an attempt key only fire when it matches.
        """
        for fault in self.checkpoint:
            if fault.shard != shard:
                continue
            if fault.attempt is not None and fault.attempt != attempt:
                continue
            if fault.kind == "corrupt":
                corrupt_file(path)
            elif fault.kind == "truncate":
                truncate_file(path)
            elif fault.kind == "kill-run":
                os.kill(os.getpid(), signal.SIGKILL)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "worker": [
                {
                    "shard": fault.shard,
                    "attempt": fault.attempt,
                    "kind": fault.kind,
                    "stall_seconds": fault.stall_seconds,
                }
                for fault in self.worker
            ],
            "checkpoint": [
                {"shard": fault.shard, "kind": fault.kind}
                if fault.attempt is None
                else {"shard": fault.shard, "kind": fault.kind, "attempt": fault.attempt}
                for fault in self.checkpoint
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError("a fault plan must be a JSON object")
        unknown = set(payload) - {"worker", "checkpoint"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {', '.join(sorted(unknown))}"
            )
        try:
            worker = tuple(
                WorkerFault(
                    shard=int(entry["shard"]),
                    attempt=int(entry.get("attempt", 0)),
                    kind=str(entry["kind"]),
                    stall_seconds=float(entry.get("stall_seconds", 0.0)),
                )
                for entry in payload.get("worker", ())
            )
            checkpoint = tuple(
                CheckpointFault(
                    shard=int(entry["shard"]),
                    kind=str(entry["kind"]),
                    attempt=(
                        int(entry["attempt"])
                        if entry.get("attempt") is not None
                        else None
                    ),
                )
                for entry in payload.get("checkpoint", ())
            )
        except (KeyError, TypeError, ValueError) as error:
            if isinstance(error, FaultPlanError):
                raise
            raise FaultPlanError(f"malformed fault plan entry: {error}") from error
        return cls(worker=worker, checkpoint=checkpoint)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {error}") from error


#: Environment variable arming a fault plan without touching the CLI: a path
#: to a plan JSON file, or inline JSON (recognised by a leading ``{``).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


def load_fault_plan(path: Optional[str] = None) -> Optional[FaultPlan]:
    """Resolve the armed fault plan: explicit path first, then the env var."""
    if path is not None:
        return FaultPlan.from_file(path)
    armed = os.environ.get(FAULT_PLAN_ENV)
    if not armed:
        return None
    if armed.lstrip().startswith("{"):
        return FaultPlan.from_json(armed)
    return FaultPlan.from_file(armed)
