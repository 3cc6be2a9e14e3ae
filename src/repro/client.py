"""Stdlib-only Python SDK for the v1 obfuscation service API.

:class:`ServiceClient` wraps the ``/v1/`` HTTP surface of
:mod:`repro.service.http` - submit, status, long-poll for results,
cancel - over ``http.client`` alone, matching the repo's no-framework
constraint.  The client and server share the typed wire shapes of
:mod:`repro.service.schema`, so a response parses into the same
:class:`~repro.service.schema.JobView` the server projected.

Transport: each thread using a client keeps one persistent HTTP/1.1
connection to the server and sends all its calls down it, so a call
costs one round trip, not a connect plus a server thread spawn.  The
server closes a connection it has kept idle too long (or when it
stops); a call that then fails on a *reused* connection is resent
once, at once, on a fresh one - the server never saw it.

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
* ``wait_result`` is one long-poll per result: the poll answers with
  the same view a status call would, so no status call precedes it.
  The server clamps one poll to its documented maximum
  (:data:`repro.service.http.MAX_WAIT_S`), so waiting longer is the
  client's job, and it loops.

Example::

    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8035", tenant="alice")
    job = client.submit(resolutions=["coarse"], orientations=["x-y"],
                        priority=2)
    final = client.wait_result(job.job_id, timeout_s=600)
    print(final.result["fingerprints"])
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

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
        parts = urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = f"{parts.path}/{API_VERSION}"
        self._local = threading.local()  # .conn: this thread's connection

    # -- transport -----------------------------------------------------------

    def _exchange(
        self, method: str, target: str, data: Optional[bytes],
        timeout: float,
    ) -> Tuple[int, bytes]:
        """One request/response on this thread's connection.

        A connection the server has since closed fails on reuse; the
        request is then resent once on a fresh connection.  A timeout
        is not resent: the server was there, just slow.
        """
        headers = {
            "Content-Type": "application/json",
            "X-Tenant": self.tenant,
        }
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(self._netloc)
        reused = conn.sock is not None
        while True:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            try:
                conn.request(method, target, body=data, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if not reused or isinstance(exc, socket.timeout):
                    raise
                reused = False

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        extra_timeout_s: float = 0.0,
    ) -> Dict[str, Any]:
        target = self._prefix + path
        data = json.dumps(payload).encode() if payload is not None else None
        delay = self.backoff_s
        last: Optional[ServiceClientError] = None
        for attempt in range(1, self.max_retries + 1):
            try:
                status, body = self._exchange(
                    method, target, data, self.timeout_s + extra_timeout_s
                )
                if status < 400:
                    return json.loads(body or b"{}")
            except (OSError, http.client.HTTPException,
                    json.JSONDecodeError) as exc:
                last = ServiceClientError(0, ErrorEnvelope(
                    code="transport",
                    message=f"{type(exc).__name__}: {exc}",
                ))
            else:
                try:
                    doc = json.loads(body or b"{}")
                except json.JSONDecodeError:
                    doc = {"error": {"code": "unknown",
                                     "message": body.decode(errors="replace")}}
                error = ServiceClientError(status, ErrorEnvelope.from_dict(doc))
                if status < 500:
                    raise error
                last = error  # 5xx: the server may come back
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
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Only now ask where the job stands, for the error.
                state = self.status(job_id).state
                raise ServiceTimeout(job_id, timeout_s, state)
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
