"""Stdlib-only Python SDK for the v1 obfuscation service API.

:class:`ServiceClient` wraps the ``/v1/`` HTTP surface of
:mod:`repro.service.http` - submit, status, long-poll for results,
cancel - over nothing but ``urllib``, matching the repo's no-framework
constraint.  The client and server share the typed wire shapes of
:mod:`repro.service.schema`, so a response parses into the same
:class:`~repro.service.schema.JobView` the server projected.

Failure semantics:

* **Transport faults and 5xx** responses are retried with capped
  exponential backoff (``max_retries`` attempts total) - a service
  restarting under a supervisor should look like latency, not an
  error;
* **4xx** responses are *not* retried (the request itself is wrong, or
  the server made a durable decision like 409 ``not_cancellable``);
  they raise :class:`ServiceClientError` carrying the parsed
  :class:`~repro.service.schema.ErrorEnvelope`, so callers branch on
  ``exc.envelope.code`` rather than scraping message strings.
* A retried ``POST /v1/jobs`` whose first attempt reached the server
  may create a second job: every accepted submission is its own job.
  The duplicate costs little, because the fleet shares its nodes with
  the first while both run and cuts it off at admission once the first
  has finished.
* ``wait_result`` loops its long-poll client-side: the server clamps
  one poll to its documented maximum
  (:data:`repro.service.http.MAX_WAIT_S`), so waiting longer is the
  client's job.

Example::

    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8035", tenant="alice")
    job = client.submit(resolutions=["coarse"], orientations=["x-y"],
                        priority=2)
    final = client.wait_result(job.job_id, timeout_s=600)
    print(final.result["fingerprints"])
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.service.schema import (
    API_VERSION,
    ErrorEnvelope,
    JobView,
    SubmitRequest,
)

__all__ = ["ServiceClient", "ServiceClientError", "ServiceTimeout"]


class ServiceClientError(RuntimeError):
    """A definitive (non-retryable or retries-exhausted) API failure.

    ``status`` is the HTTP code (0 for transport-level failures) and
    ``envelope`` the parsed error body - ``envelope.code`` is the
    stable branch point (``not_found``, ``queue_full``, ...).
    """

    def __init__(self, status: int, envelope: ErrorEnvelope):
        super().__init__(
            f"[{status}] {envelope.code}: {envelope.message}"
        )
        self.status = status
        self.envelope = envelope


class ServiceTimeout(ServiceClientError):
    """:meth:`ServiceClient.wait_result` ran out of ``timeout_s``."""

    def __init__(self, job_id: str, timeout_s: float, state: str):
        ServiceClientError.__init__(self, 0, ErrorEnvelope(
            code="timeout",
            message=(
                f"job {job_id!r} still {state} after {timeout_s:.0f}s"
            ),
            detail={"job_id": job_id, "state": state},
        ))


class ServiceClient:
    """A tenant's handle on one obfuscation service.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8035`` (no ``/v1``; the
        client versions its own paths).
    tenant:
        Sent as ``X-Tenant`` on every request.
    timeout_s:
        Socket timeout per HTTP call (long-polls add their wait).
    max_retries:
        Total attempts per call for transport faults and 5xx.
    backoff_s:
        Initial retry delay; doubles per retry, capped at 10s.
    """

    def __init__(
        self,
        base_url: str,
        tenant: str = "anon",
        timeout_s: float = 30.0,
        max_retries: int = 3,
        backoff_s: float = 0.2,
    ):
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s

    # -- transport -----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        extra_timeout_s: float = 0.0,
    ) -> Dict[str, Any]:
        url = f"{self.base_url}/{API_VERSION}{path}"
        data = json.dumps(payload).encode() if payload is not None else None
        headers = {
            "Content-Type": "application/json",
            "X-Tenant": self.tenant,
        }
        delay = self.backoff_s
        last: Optional[ServiceClientError] = None
        for attempt in range(1, self.max_retries + 1):
            req = Request(url, data=data, headers=headers, method=method)
            try:
                with urlopen(
                    req, timeout=self.timeout_s + extra_timeout_s
                ) as resp:
                    return json.loads(resp.read() or b"{}")
            except HTTPError as exc:
                body = exc.read()
                try:
                    doc = json.loads(body or b"{}")
                except json.JSONDecodeError:
                    doc = {"error": {"code": "unknown",
                                     "message": body.decode(errors="replace")}}
                error = ServiceClientError(
                    exc.code, ErrorEnvelope.from_dict(doc)
                )
                if exc.code < 500:
                    raise error from None
                last = error  # 5xx: the server may come back
            except (URLError, OSError, json.JSONDecodeError) as exc:
                last = ServiceClientError(0, ErrorEnvelope(
                    code="transport",
                    message=f"{type(exc).__name__}: {exc}",
                ))
            if attempt < self.max_retries:
                time.sleep(delay)
                delay = min(delay * 2, 10.0)
        assert last is not None
        raise last

    # -- API -----------------------------------------------------------------

    def submit(
        self,
        request: Optional[SubmitRequest] = None,
        **fields: Any,
    ) -> JobView:
        """``POST /v1/jobs``: returns the new job.

        Pass a :class:`SubmitRequest`, or its fields as kwargs
        (``seed=``, ``resolutions=``, ``orientations=``, ``machine=``,
        ``priority=``, ``deadline_s=``).
        """
        if request is not None and fields:
            raise ValueError("pass a SubmitRequest or kwargs, not both")
        payload = request.to_dict() if request is not None else fields
        doc = self._request("POST", "/jobs", payload=payload)
        return JobView.from_dict(doc)

    def status(self, job_id: str) -> JobView:
        """``GET /v1/jobs/{id}``: the job's current state."""
        return JobView.from_dict(self._request("GET", f"/jobs/{job_id}"))

    def wait_result(
        self,
        job_id: str,
        timeout_s: float = 600.0,
        poll_wait_s: float = 30.0,
    ) -> JobView:
        """Long-poll ``GET /v1/jobs/{id}/result`` until terminal.

        Returns the finished view (``done``, ``failed`` or
        ``cancelled`` - branch on ``view.state``); raises
        :class:`ServiceTimeout` if ``timeout_s`` elapses first.
        """
        deadline = time.monotonic() + timeout_s
        view = self.status(job_id)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceTimeout(job_id, timeout_s, view.state)
            wait = max(0.0, min(poll_wait_s, remaining))
            view = JobView.from_dict(self._request(
                "GET", f"/jobs/{job_id}/result?wait={wait:g}",
                extra_timeout_s=wait,
            ))
            if view.state in ("done", "failed", "cancelled"):
                return view

    def cancel(self, job_id: str) -> JobView:
        """``DELETE /v1/jobs/{id}``: cancel a queued or running job.

        Raises :class:`ServiceClientError` with ``code="not_found"``
        (404) or ``code="not_cancellable"`` (409, already finished).
        """
        return JobView.from_dict(
            self._request("DELETE", f"/jobs/{job_id}")
        )

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    # -- conveniences --------------------------------------------------------

    def submit_many(self, requests: List[SubmitRequest]) -> List[JobView]:
        """Submit a batch in order; returns one view per request."""
        return [self.submit(request) for request in requests]
