""":class:`repro.client.ServiceClient` against a live v1 server.

The SDK round-trip half of ISSUE 10 satellite #4: every client verb
(submit / status / wait_result / cancel / healthz / metrics) exercised
over real HTTP against a real :class:`ObfuscadeService`, plus the
failure contract - structured 4xx envelopes are raised immediately,
transport faults are retried then surfaced as ``code="transport"``,
and unversioned paths answer with the ``not_found`` envelope.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.client import ServiceClient, ServiceClientError, ServiceTimeout
from repro.service import ObfuscadeService, ServiceServer
from repro.service.schema import SubmitRequest

PAYLOAD = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    root = tmp_path_factory.mktemp("client-live")
    service = ObfuscadeService(
        cache_dir=root / "cache",
        out_dir=root / "runs",
        jobs=1,
        max_concurrent_jobs=2,
        queue_depth=4,
    )
    server = ServiceServer(service, port=0)
    server.start()
    service.start(paused=True)
    yield service, server
    server.stop()
    service.stop()


@pytest.fixture(scope="module")
def finished(live):
    """One payload submitted twice by two tenants (as kwargs, then as a
    SubmitRequest): two jobs, both run to done."""
    service, server = live
    first = ServiceClient(server.url, tenant="alice")
    second = ServiceClient(server.url, tenant="bob")
    view = first.submit(**PAYLOAD)
    twin = second.submit(SubmitRequest(**PAYLOAD))
    assert twin.job_id != view.job_id
    service.resume()
    final = first.wait_result(view.job_id, timeout_s=600)
    twin_final = second.wait_result(twin.job_id, timeout_s=600)
    assert twin_final.state == "done" and twin_final.tenant == "bob"
    assert twin_final.waiters == 1
    assert twin_final.result["fingerprints"] == final.result["fingerprints"]
    return first, view.job_id, final


class TestRoundTrip:
    def test_submit_returns_typed_view(self, finished):
        client, job_id, final = finished
        assert final.state == "done"
        assert final.tenant == "alice"
        assert final.spec["resolutions"] == ["coarse"]
        assert final.result["fingerprints"]
        assert final.result["fleet"]["cross_job_deduped"] >= 0

    def test_status_reflects_terminal_state(self, finished):
        client, job_id, final = finished
        view = client.status(job_id)
        assert view.state == "done"
        assert view.job_id == job_id
        # status (unlike result) does not carry the payload.
        assert view.result is None

    def test_wait_result_is_idempotent_once_done(self, finished):
        client, job_id, final = finished
        again = client.wait_result(job_id, timeout_s=5)
        assert again.result["fingerprints"] == final.result["fingerprints"]

    def test_healthz_and_metrics(self, finished):
        client, _, _ = finished
        health = client.healthz()
        assert health["status"] == "ok"
        assert "fleet" in health
        metrics = client.metrics()
        assert metrics["counters"].get("service.jobs_done", 0) >= 1

    def test_waiters_recorded_for_joined_submission(self, finished):
        """The v1 ``waiters`` field survives, fixed at 1: a repeated
        payload is a second job, never a second waiter."""
        client, job_id, _ = finished
        assert client.status(job_id).waiters == 1


class TestErrorContract:
    def test_unknown_job_is_immediate_404(self, live):
        _, server = live
        client = ServiceClient(server.url, max_retries=5, backoff_s=5.0)
        with pytest.raises(ServiceClientError) as info:
            client.status("no-such-job")
        assert info.value.status == 404
        assert info.value.envelope.code == "not_found"
        assert info.value.envelope.detail["job_id"] == "no-such-job"

    def test_invalid_request_is_structured_400(self, live):
        _, server = live
        client = ServiceClient(server.url)
        with pytest.raises(ServiceClientError) as info:
            client.submit(resolutions=["ultra-mega"])
        assert info.value.status == 400
        assert info.value.envelope.code == "invalid_request"

    def test_cancel_finished_job_is_409(self, finished):
        client, job_id, _ = finished
        with pytest.raises(ServiceClientError) as info:
            client.cancel(job_id)
        assert info.value.status == 409
        assert info.value.envelope.code == "not_cancellable"
        assert info.value.envelope.detail["state"] == "done"

    def test_transport_fault_retries_then_raises(self):
        client = ServiceClient(
            "http://127.0.0.1:9", max_retries=2, backoff_s=0.01
        )
        with pytest.raises(ServiceClientError) as info:
            client.healthz()
        assert info.value.status == 0
        assert info.value.envelope.code == "transport"

    def test_wait_result_times_out_with_state(self, live, finished):
        _, server = live
        client = ServiceClient(server.url, tenant="slow")
        view = client.submit(
            seed=7, resolutions=["coarse"], orientations=["y-z"]
        )
        with pytest.raises(ServiceTimeout) as info:
            client.wait_result(view.job_id, timeout_s=0.01)
        assert info.value.envelope.code == "timeout"
        assert info.value.envelope.detail["state"] in ("queued", "running")

    def test_submit_rejects_request_plus_kwargs(self, live):
        _, server = live
        client = ServiceClient(server.url)
        with pytest.raises(ValueError):
            client.submit(SubmitRequest(seed=7), seed=8)


class TestUnversionedRoutes:
    def test_unversioned_route_is_not_found(self, live):
        _, server = live
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{server.url}/healthz")
        assert info.value.code == 404
        assert json.load(info.value)["error"]["code"] == "not_found"

    def test_v1_route_has_no_deprecation_header(self, live):
        _, server = live
        with urllib.request.urlopen(f"{server.url}/v1/healthz") as resp:
            assert resp.status == 200
            assert resp.headers.get("Deprecation") is None
