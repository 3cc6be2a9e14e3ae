"""Tests for the multi-tenant obfuscation job service (ISSUE 9).

Three tiers:

* pure-unit: :class:`JobSpec` validation, :class:`JobQueue` admission /
  coalescing / fairness, :class:`WorkerPool` lifecycle - no sweeps run;
* admission-over-HTTP against a service whose dispatcher never starts
  (structured 400/429, never a hang);
* one real end-to-end flow (module-scoped): three submissions coalesce
  onto one job while a distinct job rides alongside, the dispatcher
  executes both, and the results/manifests/metrics are checked against
  a direct in-process sweep of the same grid.
"""

import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

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


def _job(jid, tenant="t", key=None):
    return Job(jid, JobSpec(), tenant, key or f"key-{jid}")


class TestJobQueue:
    def test_coalesce_joins_queued_job(self):
        q = JobQueue(max_depth=4)
        first, joined = q.submit(_job("j1", key="K"))
        assert not joined and first.waiters == 1
        same, joined = q.submit(_job("j2", key="K"))
        assert joined and same is first and first.waiters == 2
        assert q.joined_waiters == 1 and q.coalesced_jobs == 1
        assert q.depth() == 1  # a join adds no queue entry

    def test_running_job_still_joinable_until_finish(self):
        q = JobQueue(max_depth=4)
        first, _ = q.submit(_job("j1", key="K"))
        assert q.take(timeout=1) is first
        _, joined = q.submit(_job("j2", key="K"))
        assert joined
        first.mark_done({})
        q.finish(first)
        fresh, joined = q.submit(_job("j3", key="K"))
        assert not joined and fresh is not first  # finished: re-execute

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

    def test_joins_never_rejected_at_capacity(self):
        q = JobQueue(max_depth=1)
        q.submit(_job("j1", key="K"))
        _, joined = q.submit(_job("j2", key="K"))  # full, but no new work
        assert joined

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
    """Factory for services whose dispatcher never starts: admission
    control (and its HTTP mapping) in isolation, no sweeps run."""
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
    def test_fill_then_429_then_join_still_admitted(self, admission):
        base = {"seed": 7, "resolutions": ["coarse"]}
        code, first = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="alice",
        )
        assert code == 202 and not first["joined"]
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
        # But an identical resubmission joins: no new work, never a 429.
        code, doc = _http(
            "POST", admission.url + "/v1/jobs",
            {**base, "orientations": ["x-y"]}, tenant="carol",
        )
        assert code == 202 and doc["joined"]
        assert doc["job_id"] == first["job_id"] and doc["waiters"] == 2

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


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """The end-to-end coalescing flow; every test below reads from it."""
    root = tmp_path_factory.mktemp("svc-flow")
    service = ObfuscadeService(cache_dir=root / "cache", queue_depth=8)
    server = ServiceServer(service, port=0)
    server.start()
    service.start(paused=True)  # pile the joins up deterministically

    shared, joined0 = service.submit(dict(GRID), tenant="alice")
    _, joined1 = service.submit(dict(GRID), tenant="bob")
    code, http_doc = _http(
        "POST", server.url + "/v1/jobs", GRID, tenant="carol"
    )
    distinct, joined2 = service.submit(
        {**GRID, "orientations": ["x-z"]}, tenant="alice"
    )
    service.resume()
    assert shared.wait(timeout=600) and distinct.wait(timeout=600)
    yield SimpleNamespace(
        service=service,
        url=server.url,
        shared=shared,
        distinct=distinct,
        joined=(joined0, joined1, code, http_doc, joined2),
        root=root,
    )
    server.stop()
    service.stop()


class TestEndToEnd:
    def test_identical_submissions_coalesce_onto_one_job(self, flow):
        joined0, joined1, code, http_doc, joined2 = flow.joined
        assert not joined0 and joined1
        assert code == 202 and http_doc["joined"]
        assert http_doc["job_id"] == flow.shared.job_id
        assert not joined2  # different orientation: a different job
        assert flow.shared.waiters == 3
        assert flow.service.queue.coalesced_jobs == 1
        assert flow.service.queue.joined_waiters == 2
        assert flow.service.queue.submitted == 2  # two real computations

    def test_jobs_complete_with_distinct_results(self, flow):
        assert flow.shared.state is JobState.DONE
        assert flow.distinct.state is JobState.DONE
        fp_shared = flow.shared.result["fingerprints"]
        fp_distinct = flow.distinct.result["fingerprints"]
        assert len(fp_shared) == 1 and len(fp_distinct) == 1
        assert set(fp_shared) != set(fp_distinct)

    def test_fingerprints_match_direct_sweep(self, flow, tmp_path):
        """The service is an execution plan, not a different pipeline:
        a direct in-process simulator run of the same grid on a cold
        cache produces bit-identical fingerprints."""
        from repro.obfuscade.attack import CounterfeiterSimulator
        from repro.obfuscade.obfuscator import Obfuscator
        from repro.pipeline import ProcessChain
        from repro.service.jobs import MACHINES, ORIENTATIONS, RESOLUTIONS

        sim = CounterfeiterSimulator(
            resolutions=[RESOLUTIONS["coarse"]],
            orientations=[ORIENTATIONS["x-y"]],
            chain=ProcessChain(machine=MACHINES["fdm"]),
            cache_dir=str(tmp_path / "direct-cache"),
        )
        result = sim.attack(Obfuscator(seed=7).protect_tensile_bar())
        direct = {
            f"{c.resolution}/{c.orientation}": c.fingerprint
            for c in result.report.cells
        }
        assert direct == flow.shared.result["fingerprints"]

    def test_manifest_records_service_provenance(self, flow):
        from repro.observability import manifest as manifest_mod

        doc = manifest_mod.read_manifest(flow.shared.result["manifest"])
        assert manifest_mod.validate_manifest(doc) == []
        assert doc["config"]["command"] == "serve"
        service_block = doc["service"]
        assert service_block["job_id"] == flow.shared.job_id
        assert service_block["tenant"] == "alice"
        assert service_block["waiters"] == 3

    def test_artifact_checker_passes_on_service_output(self, flow):
        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import check_run_artifacts
        finally:
            sys.path.pop(0)
        problems = check_run_artifacts.check(
            flow.shared.result["trace"],
            flow.shared.result["manifest"],
            jobs=1,
        )
        assert problems == []

    def test_status_and_result_endpoints(self, flow):
        code, doc = _http(
            "GET", flow.url + f"/v1/jobs/{flow.shared.job_id}"
        )
        assert code == 200 and doc["state"] == "done"
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
        assert counters["service.jobs_done"] >= 2
        assert counters["service.coalesced_jobs"] == 1
        assert counters["service.joined_waiters"] == 2
        assert doc["queue"]["completed"] >= 2

    def test_resubmit_after_completion_reexecutes_warm(self, flow):
        """A finished job is not joinable (its result slot may age
        out); an identical late submission is a fresh job, cut off at
        fleet admission from the finalize memo, that still publishes
        the same fingerprints and exact artifacts."""
        job, joined = flow.service.submit(dict(GRID), tenant="dave")
        assert not joined and job is not flow.shared
        assert job.wait(timeout=600)
        assert job.state is JobState.DONE
        assert job.result["fingerprints"] == flow.shared.result["fingerprints"]
        assert job.result["fleet"]["cutoff_cells"] == 1
        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import check_run_artifacts
        finally:
            sys.path.pop(0)
        assert check_run_artifacts.check(
            job.result["trace"], job.result["manifest"], jobs=1
        ) == []


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
            warm, _ = service.submit(dict(GRID), tenant="a")
            service._admit(service.queue.take(timeout=0))
            service.fleet.run_until_idle()
            assert warm.state is JobState.DONE

            late, joined = service.submit(dict(GRID), tenant="b")
            assert not joined
            service._admit(service.queue.take(timeout=0))
            assert not late.finished  # complete, callback still pending
            assert service.cancel(late.job_id) == "cancelled"
            assert service.fleet.step() is True
            assert late.state is JobState.CANCELLED
            assert not service.fleet.has_work()
        finally:
            service.stop()
