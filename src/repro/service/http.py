"""Stdlib HTTP/JSON front end for :class:`ObfuscadeService`.

No web framework - the container bakes in the scientific toolchain
only, and a job API this small fits ``http.server`` comfortably.  A
:class:`ThreadingHTTPServer` handles each request on its own thread;
every handler is a thin JSON shim over the service object, which does
its own locking.

v1 API (ISSUE 10)
-----------------
The versioned surface lives under ``/v1/``; request/response shapes
are the typed dataclasses of :mod:`repro.service.schema`.  Every
non-2xx response carries the one
``{"error": {"code", "message", "detail"}}`` envelope.

``POST /v1/jobs``
    Body: :class:`~repro.service.schema.SubmitRequest` fields (all
    optional), e.g. ``{"seed": 7, "resolutions": ["coarse"],
    "orientations": ["x-y"], "machine": "fdm", "priority": 2,
    "deadline_s": 120}``.  Tenant comes from the ``X-Tenant`` header
    (default ``anon``).  Every accepted request is a new job of its
    tenant; identical jobs share work in the fleet, not a ``job_id``.
    **202** with the :class:`~repro.service.schema.JobView` plus a
    top-level ``joined`` flag, fixed at ``false`` in v1; **400**
    ``invalid_request`` (also for a non-integer or negative
    ``Content-Length``; no header means an empty body, i.e. all
    defaults); **429** ``queue_full`` / ``tenant_quota`` with the
    admission numbers in ``detail``.
``GET /v1/jobs/{id}``
    **200** JobView, **404** ``not_found``.
``GET /v1/jobs/{id}/result?wait=S``
    Long-poll up to ``S`` seconds - clamped server-side to
    :data:`MAX_WAIT_S` (60 s); clients wanting longer waits must loop.
    **200** JobView with ``result`` once done (or ``error`` once
    failed/cancelled), **202** JobView while queued/running, **404**
    ``not_found``.
``DELETE /v1/jobs/{id}``
    Cancel: **200** JobView once cancelled (queued jobs leave the
    queue; admitted jobs release their unshared nodes), **404**
    ``not_found``, **409** ``not_cancellable`` when already finished.
``GET /v1/healthz`` / ``GET /v1/metrics``
    Liveness + queue/fleet snapshot / the full metrics registry.

Any other path, unversioned ones included, answers **404**
``not_found``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobRejected, JobValidationError
from repro.service.schema import API_VERSION, ErrorEnvelope, JobView

#: Server-side clamp on ``?wait=`` long-polls, seconds.  Documented in
#: the API: a larger ``wait`` is accepted but truncated to this.
MAX_WAIT_S = 60.0


class _Handler(BaseHTTPRequestHandler):
    """One request; ``self.server.service`` is the ObfuscadeService."""

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, code: int, envelope: ErrorEnvelope) -> None:
        self._send_json(code, envelope.to_dict())

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through the metrics registry instead

    # -- routing -------------------------------------------------------------

    def _route(self) -> Tuple[Optional[str], Dict[str, str]]:
        """Map the request path onto a v1 endpoint name (``None`` when
        no endpoint matches)."""
        path = urlparse(self.path).path
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != API_VERSION:
            return None, {}
        parts = parts[1:]
        if parts == ["jobs"]:
            return "jobs", {}
        if len(parts) == 2 and parts[0] == "jobs":
            return "job", {"id": parts[1]}
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            return "result", {"id": parts[1]}
        if parts in (["healthz"], ["metrics"]):
            return parts[0], {}
        return None, {}

    def _not_found(self, what: Optional[str] = None) -> None:
        detail = {"path": self.path} if what is None else {"job_id": what}
        self._send_error(404, ErrorEnvelope(
            code="not_found",
            message=(
                f"unknown path {self.path!r}" if what is None
                else f"unknown job {what!r}"
            ),
            detail=detail,
        ))

    # -- verbs ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        endpoint, params = self._route()
        if endpoint != "jobs":
            self._not_found()
            return
        service = self.server.service
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # The body cannot be delimited, so it is left unread and
            # the connection closes after the error.
            self.close_connection = True
            self._send_error(400, ErrorEnvelope(
                code="invalid_request",
                message=f"Content-Length must be a non-negative integer "
                        f"(got {declared!r})",
            ))
            return
        length = int(declared)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            self._send_error(400, ErrorEnvelope(
                code="invalid_request",
                message=f"body must be JSON: {exc}",
            ))
            return
        tenant = self.headers.get("X-Tenant") or "anon"
        try:
            job = service.submit(payload, tenant=tenant)
        except JobValidationError as exc:
            self._send_error(400, ErrorEnvelope(
                code="invalid_request", message=str(exc),
            ))
            return
        except JobRejected as exc:
            # Backpressure is a structured response, never a hang.
            self._send_error(429, ErrorEnvelope.from_rejection(exc))
            return
        doc = JobView.from_job(job).to_dict()
        doc["joined"] = False  # v1 wire field; submissions never join
        self._send_json(202, doc)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        endpoint, params = self._route()
        service = self.server.service
        if endpoint == "healthz":
            self._send_json(200, service.healthz())
        elif endpoint == "metrics":
            self._send_json(200, service.metrics_snapshot())
        elif endpoint in ("job", "result"):
            job = service.get(params["id"])
            if job is None:
                self._not_found(params["id"])
                return
            if endpoint == "job":
                self._send_json(200, JobView.from_job(job).to_dict())
                return
            wait_s = 0.0
            try:
                wait_s = float(
                    parse_qs(urlparse(self.path).query).get("wait", ["0"])[0]
                )
            except ValueError:
                pass
            if wait_s > 0:
                job.wait(min(wait_s, MAX_WAIT_S))
            doc = JobView.from_job(job, include_result=True).to_dict()
            self._send_json(200 if job.finished else 202, doc)
        else:
            self._not_found()

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        endpoint, params = self._route()
        if endpoint != "job":
            self._not_found()
            return
        service = self.server.service
        outcome = service.cancel(params["id"])
        if outcome == "not_found":
            self._not_found(params["id"])
            return
        if outcome == "not_cancellable":
            job = service.get(params["id"])
            self._send_error(409, ErrorEnvelope(
                code="not_cancellable",
                message=f"job {params['id']!r} already finished",
                detail={"job_id": params["id"],
                        "state": job.state.value if job else "unknown"},
            ))
            return
        job = service.get(params["id"])
        # The fleet callback may still be publishing the terminal
        # state; wait briefly so the response reflects it.
        if job is not None and not job.finished:
            job.wait(timeout=5)
        self._send_json(200, JobView.from_job(job).to_dict())


class ServiceServer:
    """Owns the HTTP listener for one :class:`ObfuscadeService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` is the
    bound ``(host, port)`` either way.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8035):
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve on a background thread (tests / embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="obfuscade-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``serve`` CLI command)."""
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
