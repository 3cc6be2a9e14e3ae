"""Tests for the multi-tenant obfuscation job service (ISSUE 9).

Three tiers:

* pure-unit: :class:`JobSpec` validation, :class:`JobQueue` admission /
  fairness, :class:`WorkerPool` lifecycle - no sweeps run;
* admission-over-HTTP against a service whose dispatcher never starts
  (structured 400/429, never a hang), malformed ``Content-Length``
  included;
* one real end-to-end flow (module-scoped): three identical
  submissions become three jobs while a distinct job rides alongside,
  the dispatcher executes all four, and the results/manifests/metrics
  are checked against a direct in-process sweep of the same grid;
* tenant isolation: identical submissions from two tenants stay two
  jobs, each cancellable and quota-counted only by its own tenant.
"""

import json
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.client import ServiceClient, ServiceClientError
from repro.pipeline import WorkerPool
from repro.service import (
    Job,
    JobQueue,
    JobRejected,
    JobSpec,
    JobState,
    JobValidationError,
    ObfuscadeService,
    ServiceServer,
)

REPO = Path(__file__).resolve().parents[1]


def _http(method, url, payload=None, tenant=None, timeout=180):
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    data = json.dumps(payload).encode() if payload is not None else None
    req = Request(url, data=data, headers=headers, method=method)
    try:
        with urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _raw_post(address, content_length, body=b'{"seed": 3}'):
    """``POST /v1/jobs`` over a raw socket with a hand-written
    ``Content-Length`` (``None`` omits the header); the body is sent
    but the socket is never half-closed, so a server that waits for
    more bytes times the test out instead of reading to EOF."""
    head = "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status, _, payload = reply.partition(b"\r\n\r\n")
    assert status, "connection closed without a response"
    return int(status.split()[1]), json.loads(payload)


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec.from_request({})
        assert spec.seed == 7
        assert spec.resolutions == ("coarse", "fine", "custom")
        assert spec.machine == "fdm"

    def test_comma_strings_and_dedup(self):
        spec = JobSpec.from_request(
            {"resolutions": "coarse, fine, coarse", "orientations": ["x-y"]}
        )
        assert spec.resolutions == ("coarse", "fine")
        assert spec.orientations == ("x-y",)

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"seed": "seven"},
        {"seed": True},  # bool is not an acceptable integer
        {"machine": "sls"},
        {"resolutions": []},
        {"resolutions": ["ultra"]},
        {"orientations": [42]},
        {"unexpected": 1},
    ])
    def test_bad_requests_rejected(self, payload):
        with pytest.raises(JobValidationError):
            JobSpec.from_request(payload)


def _job(jid, tenant="t"):
    return Job(jid, JobSpec(), tenant)


class TestJobQueue:
    def test_queue_full_is_structured(self):
        q = JobQueue(max_depth=2)
        q.submit(_job("j1"))
        q.submit(_job("j2"))
        with pytest.raises(JobRejected) as exc:
            q.submit(_job("j3"))
        doc = exc.value.to_dict()
        assert doc["code"] == "queue_full"
        assert doc["queue_depth"] == 2 and doc["max_depth"] == 2
        assert q.rejected == 1

    def test_tenant_quota(self):
        q = JobQueue(max_depth=8, max_tenant_queued=1)
        q.submit(_job("a1", tenant="alice"))
        with pytest.raises(JobRejected) as exc:
            q.submit(_job("a2", tenant="alice"))
        assert exc.value.code == "tenant_quota"
        assert exc.value.to_dict()["tenant"] == "alice"
        q.submit(_job("b1", tenant="bob"))  # other tenants unaffected

    def test_round_robin_fairness(self):
        q = JobQueue(max_depth=8)
        for jid, tenant in [("a1", "alice"), ("a2", "alice"),
                            ("a3", "alice"), ("b1", "bob")]:
            q.submit(_job(jid, tenant=tenant))
        order = [q.take(timeout=1).job_id for _ in range(4)]
        # One job per tenant per turn: bob's single job is not starved
        # behind alice's backlog.
        assert order == ["a1", "b1", "a2", "a3"]

    def test_take_marks_running_and_times_out(self):
        q = JobQueue(max_depth=2)
        q.submit(_job("j1"))
        job = q.take(timeout=1)
        assert job.state is JobState.RUNNING
        assert job.started_s is not None
        assert q.take(timeout=0.05) is None

    def test_take_wakes_on_submit(self):
        q = JobQueue(max_depth=2)
        got = []
        taker = threading.Thread(target=lambda: got.append(q.take(timeout=5)))
        taker.start()
        time.sleep(0.1)
        q.submit(_job("j1"))
        taker.join(timeout=5)
        assert got and got[0].job_id == "j1"


class TestWorkerPool:
    def test_lifecycle(self):
        pool = WorkerPool(2)
        first = pool.get()
        assert pool.get() is first  # one executor, many leases
        assert pool.leases == 2 and pool.rebuilds == 0
        replacement = pool.rebuild()
        assert replacement is not first and pool.rebuilds == 1
        pool.shutdown()
        revived = pool.get()  # shutdown is not the end of the handle
        assert revived is not replacement
        pool.shutdown()
        pool.shutdown()  # idempotent

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


@pytest.fixture
def make_admission(tmp_path):
    """Factory for HTTP-fronted services whose dispatcher stays
    unstarted unless a test starts it: admission control (and its HTTP
    mapping) in isolation, no sweeps run."""
    built = []

    def build(**kwargs):
        service = ObfuscadeService(cache_dir=tmp_path / "cache", **kwargs)
        server = ServiceServer(service, port=0)
        server.start()
        built.append((service, server))
        return SimpleNamespace(service=service, server=server, url=server.url)

    yield build
    for service, server in built:
        server.stop()
        service.stop()


@pytest.fixture
def admission(make_admission):
    return make_admission(queue_depth=2)


class TestAdmissionOverHttp:
    def test_fill_then_429_even_for_identical_resubmission(self, admission):
        base = {"seed": 7, "resolutions": ["coarse"]}
        code, first = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="alice",
        )
        assert code == 202 and first["joined"] is False
        assert first["waiters"] == 1
        code, _ = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="bob",
        )
        assert code == 202
        # Depth 2 reached: a third distinct job gets a structured 429.
        code, doc = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y", "x-z"]}, tenant="carol",
        )
        assert code == 429
        assert doc["error"]["code"] == "queue_full"
        detail = doc["error"]["detail"]
        assert detail["queue_depth"] == 2 and detail["max_depth"] == 2
        # An identical resubmission would be a new job: also a 429.
        code, doc = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="carol",
        )
        assert code == 429 and doc["error"]["code"] == "queue_full"
        assert admission.service.queue.depth() == 2

    def test_tenant_quota_429(self, make_admission):
        quota = make_admission(queue_depth=8, max_tenant_queued=1)
        base = {"seed": 7, "resolutions": ["coarse"]}
        code, _ = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="alice",
        )
        assert code == 202
        code, doc = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="alice",
        )
        assert code == 429 and doc["error"]["code"] == "tenant_quota"
        # Other tenants are unaffected by alice's quota.
        code, _ = _http(
            "POST", quota.url + "/v1/jobs",
            {**base, "orientations": ["x-z"]}, tenant="bob",
        )
        assert code == 202

    @pytest.mark.parametrize("payload", [
        {"seed": "seven"},
        {"machine": "sls"},
        {"unexpected": True},
    ])
    def test_validation_maps_to_400(self, admission, payload):
        code, doc = _http("POST", admission.url + "/v1/jobs", payload)
        assert code == 400 and doc["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize("length", ["abc", "-1", "-5"])
    def test_malformed_content_length_is_400(self, admission, length):
        """A body that cannot be delimited is refused, not guessed at:
        no job is queued, and the handler neither blocks nor drops the
        connection."""
        code, doc = _raw_post(admission.server.address, length)
        assert code == 400 and doc["error"]["code"] == "invalid_request"
        assert admission.service.queue.submitted == 0

    def test_missing_content_length_selects_defaults(self, admission):
        code, doc = _raw_post(admission.server.address, None)
        assert code == 202
        assert doc["spec"] == JobSpec().to_dict()

    @pytest.mark.parametrize("request_line, status, answered", [
        (b"POST /nope", b"404",
         lambda doc: doc["error"]["code"] == "not_found"),
        (b"GET /v1/healthz", b"200", lambda doc: doc["status"] == "ok"),
    ], ids=["post-unknown-route", "get-with-body"])
    def test_unread_body_closes_the_connection(self, admission, request_line,
                                               status, answered):
        """A body the server does not read must not be parsed as the
        next request on a kept connection: the response closes it, and
        the pipelined healthz behind the body is never answered."""
        body = b'{"seed": 3}'
        pipelined = (
            b"%s HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: %d\r\n\r\n%s"
            b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
            % (request_line, len(body), body)
        )
        with socket.create_connection(admission.server.address,
                                      timeout=10) as sock:
            sock.sendall(pipelined)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == status
        assert b"connection: close" in head.lower()
        assert answered(json.loads(payload))
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_stop_closes_kept_connections(self, admission):
        client = ServiceClient(admission.url, max_retries=2, backoff_s=0.01)
        assert client.healthz()["status"] == "ok"
        admission.server.stop()
        with pytest.raises(ServiceClientError) as info:
            client.healthz()
        assert info.value.status == 0
        assert info.value.envelope.code == "transport"

    def test_unknown_routes_404(self, admission):
        assert _http("GET", admission.url + "/v1/jobs/job-99999")[0] == 404
        assert _http("GET", admission.url + "/nope")[0] == 404
        assert _http("POST", admission.url + "/nope", {})[0] == 404

    def test_healthz_reports_queue_state(self, admission):
        admission.service.submit(
            {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}
        )
        code, doc = _http("GET", admission.url + "/v1/healthz")
        assert code == 200 and doc["status"] == "ok"
        assert doc["dispatcher"] == "stopped"
        assert doc["queue"]["queued"] == 1


GRID = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}


def _checker():
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import check_run_artifacts
    finally:
        sys.path.pop(0)
    return check_run_artifacts


@pytest.fixture(scope="module")
def direct_fingerprints(tmp_path_factory):
    """GRID's fingerprints from a direct in-process simulator run on a
    cold cache: the service is an execution plan, not a different
    pipeline, so every service job of GRID must reproduce them."""
    from repro.obfuscade.attack import CounterfeiterSimulator
    from repro.obfuscade.obfuscator import Obfuscator
    from repro.pipeline import ProcessChain
    from repro.service.jobs import MACHINES, ORIENTATIONS, RESOLUTIONS

    sim = CounterfeiterSimulator(
        resolutions=[RESOLUTIONS["coarse"]],
        orientations=[ORIENTATIONS["x-y"]],
        chain=ProcessChain(machine=MACHINES["fdm"]),
        cache_dir=str(tmp_path_factory.mktemp("direct-cache")),
    )
    result = sim.attack(Obfuscator(seed=7).protect_tensile_bar())
    return {
        f"{c.resolution}/{c.orientation}": c.fingerprint
        for c in result.report.cells
    }


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The end-to-end flow; every test below reads from it.  Three
    identical submissions from three tenants (the third over HTTP) and
    one distinct job are queued while the dispatcher is paused."""
    root = tmp_path_factory.mktemp("svc-flow")
    service = ObfuscadeService(cache_dir=root / "cache", queue_depth=8)
    server = ServiceServer(service, port=0)
    server.start()
    service.start(paused=True)  # queue every submission before any runs

    first = service.submit(dict(GRID), tenant="alice")
    second = service.submit(dict(GRID), tenant="bob")
    code, http_doc = _http(
        "POST", server.url + "/v1/jobs", GRID, tenant="carol"
    )
    third = service.get(http_doc["job_id"])
    distinct = service.submit(
        {**GRID, "orientations": ["x-z"]}, tenant="alice"
    )
    service.resume()
    identical = (first, second, third)
    for job in identical + (distinct,):
        assert job.wait(timeout=600)
    yield SimpleNamespace(
        service=service,
        url=server.url,
        shared=first,
        identical=identical,
        tenants=("alice", "bob", "carol"),
        distinct=distinct,
        http=(code, http_doc),
        root=root,
    )
    server.stop()
    service.stop()


class TestEndToEnd:
    def test_identical_submissions_are_separate_jobs(self, flow):
        code, http_doc = flow.http
        assert code == 202
        assert http_doc["joined"] is False and http_doc["waiters"] == 1
        ids = {job.job_id for job in flow.identical}
        assert len(ids) == 3 and flow.distinct.job_id not in ids
        assert tuple(job.tenant for job in flow.identical) == flow.tenants
        assert flow.service.queue.submitted == 4

    def test_jobs_complete_with_distinct_results(self, flow):
        for job in flow.identical + (flow.distinct,):
            assert job.state is JobState.DONE
        fp_shared = flow.shared.result["fingerprints"]
        fp_distinct = flow.distinct.result["fingerprints"]
        assert len(fp_shared) == 1 and len(fp_distinct) == 1
        assert set(fp_shared) != set(fp_distinct)

    def test_fingerprints_match_direct_sweep(self, flow, direct_fingerprints):
        for job in flow.identical:
            assert job.result["fingerprints"] == direct_fingerprints

    def test_identical_jobs_execute_no_node_twice(self, flow):
        """Duplicates share work through the fleet only: together the
        three jobs execute no more stage nodes than one of them."""
        from repro.observability import manifest as manifest_mod

        executed = [
            manifest_mod.read_manifest(job.result["manifest"])
            ["scheduler"]["totals"]["executed"]
            for job in flow.identical
        ]
        assert 0 < sum(executed) <= max(executed)

    def test_manifest_records_service_provenance(self, flow):
        from repro.observability import manifest as manifest_mod

        for job, tenant in zip(flow.identical, flow.tenants):
            doc = manifest_mod.read_manifest(job.result["manifest"])
            assert manifest_mod.validate_manifest(doc) == []
            assert doc["config"]["command"] == "serve"
            service_block = doc["service"]
            assert service_block["job_id"] == job.job_id
            assert service_block["tenant"] == tenant
            assert "waiters" not in service_block

    def test_artifact_checker_passes_on_service_output(self, flow):
        check_run_artifacts = _checker()
        for job in flow.identical:
            assert check_run_artifacts.check(
                job.result["trace"], job.result["manifest"], jobs=1,
            ) == []

    def test_status_and_result_endpoints(self, flow):
        code, doc = _http(
            "GET", flow.url + f"/v1/jobs/{flow.shared.job_id}"
        )
        assert code == 200 and doc["state"] == "done"
        assert doc["waiters"] == 1
        code, doc = _http(
            "GET", flow.url + f"/v1/jobs/{flow.shared.job_id}/result?wait=5"
        )
        assert code == 200
        assert doc["result"]["fingerprints"]
        assert doc["result"]["cells_failed"] == 0

    def test_metrics_expose_service_counters(self, flow):
        code, doc = _http("GET", flow.url + "/v1/metrics")
        assert code == 200
        counters = doc["counters"]
        assert counters["service.jobs_done"] >= 4
        assert doc["queue"]["completed"] >= 4

    def test_resubmit_after_completion_reexecutes_warm(self, flow):
        """An identical submission after completion is a fresh job,
        cut off at fleet admission from the finalize memo, that still
        publishes the same fingerprints and exact artifacts."""
        job = flow.service.submit(dict(GRID), tenant="dave")
        assert job not in flow.identical
        assert job.wait(timeout=600)
        assert job.state is JobState.DONE
        assert job.result["fingerprints"] == flow.shared.result["fingerprints"]
        assert job.result["fleet"]["cutoff_cells"] == 1
        assert _checker().check(
            job.result["trace"], job.result["manifest"], jobs=1
        ) == []


class TestTenantIsolation:
    """Identical submissions from two tenants are two jobs: neither
    tenant can see, cancel or spend the other's."""

    def test_cancel_reaches_only_the_cancelling_tenants_job(
        self, make_admission, direct_fingerprints
    ):
        svc = make_admission()
        svc.service.start(paused=True)
        url = svc.url + "/v1/jobs"
        code_a, view_a = _http("POST", url, GRID, tenant="tenant-a")
        code_b, view_b = _http("POST", url, GRID, tenant="tenant-b")
        assert code_a == code_b == 202
        assert view_a["job_id"] != view_b["job_id"]
        assert view_a["tenant"] == "tenant-a"
        assert view_b["tenant"] == "tenant-b"

        code, cancelled = _http("DELETE", url + "/" + view_b["job_id"])
        assert code == 200 and cancelled["state"] == "cancelled"
        job_a = svc.service.get(view_a["job_id"])
        assert job_a.state is JobState.QUEUED

        svc.service.resume()
        assert job_a.wait(timeout=600)
        assert job_a.state is JobState.DONE
        assert job_a.result["fingerprints"] == direct_fingerprints

    def test_identical_submission_counts_against_own_quota(
        self, make_admission
    ):
        quota = make_admission(max_tenant_queued=1)
        url = quota.url + "/v1/jobs"
        assert _http("POST", url, GRID, tenant="tenant-a")[0] == 202
        code, _ = _http(
            "POST", url, {**GRID, "orientations": ["x-z"]},
            tenant="tenant-b",
        )
        assert code == 202
        # tenant-b's quota is spent; tenant-a's identical job is no
        # way around it.
        code, doc = _http("POST", url, GRID, tenant="tenant-b")
        assert code == 429 and doc["error"]["code"] == "tenant_quota"
        assert doc["error"]["detail"]["tenant"] == "tenant-b"


class TestCutoffCancelRace:
    def test_cancel_of_job_completed_at_admission_stays_cancelled(
        self, tmp_path
    ):
        """A warm job completes inside fleet admission, before the
        dispatcher fires its callback; a cancel landing in between is
        answered "cancelled" (the fleet no longer knows the job), so
        the published state must be cancelled too."""
        service = ObfuscadeService(cache_dir=tmp_path / "cache")
        try:
            warm = service.submit(dict(GRID), tenant="a")
            service._admit(service.queue.take(timeout=0))
            service.fleet.run_until_idle()
            assert warm.state is JobState.DONE

            late = service.submit(dict(GRID), tenant="b")
            service._admit(service.queue.take(timeout=0))
            assert not late.finished  # complete, callback still pending
            assert service.cancel(late.job_id) == "cancelled"
            assert service.fleet.step() is True
            assert late.state is JobState.CANCELLED
            assert not service.fleet.has_work()
        finally:
            service.stop()
