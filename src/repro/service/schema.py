"""Typed wire schema of the v1 service API.

The v1 HTTP surface (:mod:`repro.service.http`) and the Python SDK
(:mod:`repro.client`) agree on three shapes, defined once here:

* :class:`SubmitRequest` - the ``POST /v1/jobs`` body;
* :class:`JobView` - the job representation every 2xx response carries;
* :class:`ErrorEnvelope` - the single error shape **every** non-2xx
  response carries: ``{"error": {"code", "message", "detail"}}``.
  ``code`` is a stable machine-readable string (``invalid_request``,
  ``queue_full``, ``tenant_quota``, ``not_found``, ``not_cancellable``,
  ``internal``), ``message`` is human-readable, and ``detail`` is an
  optional object with the numbers behind the decision (queue depths,
  quotas, ...).

These are plain dataclasses over JSON-compatible values - the service
is stdlib-only by design - with ``to_dict``/``from_dict`` as the only
serialization boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Wire-format version of the job API; bump on breaking changes.
API_VERSION = "v1"


@dataclass(frozen=True)
class SubmitRequest:
    """The ``POST /v1/jobs`` body (all fields optional server-side).

    Mirrors :meth:`repro.service.jobs.JobSpec.from_request`, which
    remains the single validation authority - this class only gives
    SDK callers a typed constructor for the payload.
    """

    seed: int = 7
    resolutions: Any = None  # list[str] | comma string | None (defaults)
    orientations: Any = None
    machine: str = "fdm"
    priority: int = 5
    deadline_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "seed": self.seed,
            "machine": self.machine,
            "priority": self.priority,
        }
        if self.resolutions is not None:
            doc["resolutions"] = self.resolutions
        if self.orientations is not None:
            doc["orientations"] = self.orientations
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc


@dataclass(frozen=True)
class JobView:
    """The job representation of every v1 2xx response.

    ``result`` is present only when the job is ``done`` (and the
    caller asked for it via the result endpoint); ``error`` only when
    it is ``failed`` or ``cancelled``.  ``waiters`` is fixed at 1 in
    v1: every submission is its own job, and the field stays for wire
    stability.
    """

    job_id: str
    state: str
    tenant: str
    waiters: int
    spec: Dict[str, Any] = field(default_factory=dict)
    created_s: Optional[float] = None
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

    @classmethod
    def from_job(cls, job, include_result: bool = False) -> "JobView":
        """Project a :class:`repro.service.jobs.Job` onto the wire."""
        return cls(
            job_id=job.job_id,
            state=job.state.value,
            tenant=job.tenant,
            waiters=1,
            spec=job.spec.to_dict(),
            created_s=job.created_s,
            started_s=job.started_s,
            finished_s=job.finished_s,
            result=job.result if include_result else None,
            error=job.error,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "tenant": self.tenant,
            "waiters": self.waiters,
            "spec": self.spec,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobView":
        return cls(
            job_id=doc.get("job_id", ""),
            state=doc.get("state", ""),
            tenant=doc.get("tenant", ""),
            waiters=int(doc.get("waiters", 0)),
            spec=doc.get("spec") or {},
            created_s=doc.get("created_s"),
            started_s=doc.get("started_s"),
            finished_s=doc.get("finished_s"),
            result=doc.get("result"),
            error=doc.get("error"),
        )


@dataclass(frozen=True)
class ErrorEnvelope:
    """The one error shape of every non-2xx response."""

    code: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            body["detail"] = self.detail
        return {"error": body}

    @classmethod
    def from_dict(cls, doc: Any) -> "ErrorEnvelope":
        """Parse an envelope defensively (SDK side: any body shape)."""
        body = doc.get("error") if isinstance(doc, dict) else None
        if not isinstance(body, dict):
            return cls(code="unknown", message=str(doc))
        return cls(
            code=str(body.get("code", "unknown")),
            message=str(body.get("message", "")),
            detail=body.get("detail") or {},
        )

    @classmethod
    def from_rejection(cls, exc) -> "ErrorEnvelope":
        """Wrap a :class:`repro.service.jobs.JobRejected`."""
        return cls(code=exc.code, message=str(exc), detail=dict(exc.details))
