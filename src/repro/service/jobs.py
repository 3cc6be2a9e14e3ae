"""Job model of the obfuscation service: specs, states, rejections.

A *job* is one counterfeit-resistance evaluation - "grid-search these
process settings against the protected model of this seed" - exactly
what the ``sweep``/``attack`` CLI commands run once and exit.  The
service runs many of them back-to-back for many callers, so jobs carry
tenant attribution and a lifecycle state machine.  Every accepted
submission is its own job, owned by the tenant that sent it; two
identical jobs share their work in the fleet, never their identity.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.vocabulary import MACHINES, ORIENTATIONS, RESOLUTIONS


class JobState(str, Enum):
    """Lifecycle: queued -> running -> done | failed | cancelled."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class JobValidationError(ValueError):
    """The request payload does not describe a runnable job (HTTP 400)."""


class JobRejected(RuntimeError):
    """Admission control refused the job (HTTP 429, structured body).

    Backpressure must be a *response*, not a hang: the exception
    carries a machine-readable code (``queue_full``, ``tenant_quota``)
    and the numbers behind the decision, so a client can back off
    intelligently.
    """

    def __init__(self, code: str, message: str, **details: Any):
        super().__init__(message)
        self.code = code
        self.details = details

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": "rejected",
            "code": self.code,
            "message": str(self),
            **self.details,
        }


def _names(payload: Any, field: str, known: Dict[str, Any],
           default: Tuple[str, ...]) -> Tuple[str, ...]:
    raw = payload.get(field)
    if raw is None:
        return default
    if isinstance(raw, str):
        raw = [part.strip() for part in raw.split(",") if part.strip()]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise JobValidationError(
            f"{field} must be a non-empty list (or comma string) "
            f"of {sorted(known)}"
        )
    names = []
    for name in raw:
        if not isinstance(name, str) or name not in known:
            raise JobValidationError(
                f"unknown {field[:-1]} {name!r} (choose from {sorted(known)})"
            )
        if name not in names:
            names.append(name)
    return tuple(names)


@dataclass(frozen=True)
class JobSpec:
    """The validated, immutable description of one grid-search job."""

    seed: int = 7
    resolutions: Tuple[str, ...] = ("coarse", "fine", "custom")
    orientations: Tuple[str, ...] = ("x-y", "x-z")
    machine: str = "fdm"
    #: Fleet scheduling urgency (0 = most urgent, 9 = least).
    priority: int = 5
    #: Optional soft deadline in seconds from admission; urgency
    #: tie-break only - the fleet never aborts a late job.
    deadline_s: Optional[float] = None

    @classmethod
    def from_request(cls, payload: Any) -> "JobSpec":
        """Build a spec from an untrusted request body; raises
        :class:`JobValidationError` with a client-actionable message."""
        if not isinstance(payload, dict):
            raise JobValidationError("request body must be a JSON object")
        unknown = set(payload) - {"seed", "resolutions", "orientations",
                                  "machine", "priority", "deadline_s"}
        if unknown:
            raise JobValidationError(
                f"unknown request fields: {sorted(unknown)}"
            )
        seed = payload.get("seed", 7)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise JobValidationError("seed must be an integer")
        machine = payload.get("machine", "fdm")
        if machine not in MACHINES:
            raise JobValidationError(
                f"unknown machine {machine!r} (choose from {sorted(MACHINES)})"
            )
        priority = payload.get("priority", 5)
        if isinstance(priority, bool) or not isinstance(priority, int) \
                or not 0 <= priority <= 9:
            raise JobValidationError("priority must be an integer in 0..9")
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            if isinstance(deadline_s, bool) \
                    or not isinstance(deadline_s, (int, float)) \
                    or deadline_s <= 0:
                raise JobValidationError(
                    "deadline_s must be a positive number of seconds"
                )
            deadline_s = float(deadline_s)
        return cls(
            seed=seed,
            resolutions=_names(payload, "resolutions", RESOLUTIONS,
                               ("coarse", "fine", "custom")),
            orientations=_names(payload, "orientations", ORIENTATIONS,
                                ("x-y", "x-z")),
            machine=machine,
            priority=priority,
            deadline_s=deadline_s,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "resolutions": list(self.resolutions),
            "orientations": list(self.orientations),
            "machine": self.machine,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
        }


class Job:
    """One submitted job: spec + tenant + lifecycle + result slot.

    Completion is signalled through an event so HTTP handlers can
    long-poll ``wait()`` without spinning.
    """

    def __init__(self, job_id: str, spec: JobSpec, tenant: str):
        self.job_id = job_id
        self.spec = spec
        self.tenant = tenant
        self.state = JobState.QUEUED
        self.created_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        #: Set by the service's cancel path; the dispatcher honours it
        #: if the job is caught mid-handoff between queue and fleet.
        self.cancel_requested = False
        self._done = threading.Event()

    @property
    def finished(self) -> bool:
        return self.state in (
            JobState.DONE, JobState.FAILED, JobState.CANCELLED
        )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did within timeout."""
        return self._done.wait(timeout)

    def mark_done(self, result: Dict[str, Any]) -> None:
        self.result = result
        self.state = JobState.DONE
        self.finished_s = time.time()
        self._done.set()

    def mark_failed(self, error: Dict[str, Any]) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished_s = time.time()
        self._done.set()

    def mark_cancelled(self) -> None:
        self.error = {"error": "cancelled",
                      "message": "job cancelled by request"}
        self.state = JobState.CANCELLED
        self.finished_s = time.time()
        self._done.set()
