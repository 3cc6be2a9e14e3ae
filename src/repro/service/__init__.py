"""Multi-tenant obfuscation job service (ISSUE 9 + ISSUE 10).

The production face of the reproduction: a long-lived process fronting
the staged sweep engine with admission control, a concurrent cross-job
fleet scheduler and a versioned HTTP/JSON API - the shape a
counterfeit-resistance evaluation service would actually ship in.
Every accepted submission is its own job, owned by its own tenant;
duplicate work is removed in one place, the fleet (node dedup while
identical jobs run together, early cutoff once one has finished).

Layers (each importable on its own):

* :mod:`repro.service.jobs` - request validation (:class:`JobSpec`,
  now carrying priority/deadline), the job lifecycle (:class:`Job`,
  :class:`JobState` including ``CANCELLED``) and the structured
  refusals (:class:`JobRejected`, :class:`JobValidationError`);
* :mod:`repro.service.queue` - :class:`JobQueue`: bounded depth and
  per-tenant *weighted fair* (stride) scheduling;
* :mod:`repro.service.schema` - the typed v1 wire shapes
  (:class:`SubmitRequest`, :class:`JobView`, :class:`ErrorEnvelope`)
  shared by the HTTP layer and the :mod:`repro.client` SDK;
* :mod:`repro.service.core` - :class:`ObfuscadeService`: the
  dispatcher thread admitting up to ``max_concurrent_jobs`` jobs into
  one :class:`~repro.pipeline.FleetScheduler`, warm
  :class:`~repro.pipeline.WorkerPool`, shared disk cache, per-job
  manifests/traces;
* :mod:`repro.service.http` - :class:`ServiceServer`: the stdlib
  ``ThreadingHTTPServer`` front end (``repro-obfuscade serve``) with
  the ``/v1/`` API.
"""

from repro.service.core import ObfuscadeService
from repro.service.http import ServiceServer
from repro.service.jobs import (
    Job,
    JobRejected,
    JobSpec,
    JobState,
    JobValidationError,
)
from repro.service.queue import JobQueue
from repro.service.schema import ErrorEnvelope, JobView, SubmitRequest

__all__ = [
    "ErrorEnvelope",
    "Job",
    "JobQueue",
    "JobRejected",
    "JobSpec",
    "JobState",
    "JobValidationError",
    "JobView",
    "ObfuscadeService",
    "ServiceServer",
    "SubmitRequest",
]
