"""Tests for the resilience primitives and the tamper-evident cache.

ISSUE 3: the exception hierarchy, retry policy and wall-clock budget in
:mod:`repro.pipeline.resilience`; the hash-verified, quarantining
:class:`DiskStageCache`, which also guards the persisted finalize memo.
"""

import signal
import time

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.pipeline import (
    CacheIntegrityError,
    CellTimeout,
    DiskStageCache,
    MeshValidationError,
    PipelineConfigError,
    PipelineError,
    RetryPolicy,
    StageError,
    time_limit,
)
from repro.pipeline.disk import FINALIZE_STAGE
from repro.pipeline.resilience import NO_RETRY, TRANSIENT_ERRORS


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.uninstall()


class TestExceptionHierarchy:
    def test_all_rooted_at_pipeline_error(self):
        for cls in (StageError, CellTimeout, CacheIntegrityError,
                    MeshValidationError, PipelineConfigError):
            assert issubclass(cls, PipelineError)

    def test_config_error_is_value_error(self):
        """Callers that caught the old bare ValueError keep working."""
        assert issubclass(PipelineConfigError, ValueError)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)

    def test_stage_error_carries_coordinates(self):
        cause = RuntimeError("boom")
        try:
            raise StageError("slice", "abc123def456", cause) from cause
        except StageError as exc:
            assert exc.stage == "slice"
            assert exc.digest == "abc123def456"
            assert exc.__cause__ is cause
            assert "slice" in str(exc) and "boom" in str(exc)

    def test_cell_timeout_message(self):
        exc = CellTimeout(2.5, what="cell Coarse/x-y")
        assert exc.seconds == 2.5
        assert "Coarse/x-y" in str(exc) and "2.5" in str(exc)

    def test_mesh_validation_error_localises_triangle(self):
        exc = MeshValidationError("non-finite vertex", triangle_index=17)
        assert exc.triangle_index == 17
        assert "17" in str(exc)
        assert MeshValidationError("bad").triangle_index is None

    def test_cache_integrity_error(self):
        exc = CacheIntegrityError("/cache/x.pkl", "sha256 mismatch")
        assert exc.path == "/cache/x.pkl"
        assert "sha256 mismatch" in str(exc)


class TestRetryPolicy:
    def test_no_retry_default(self):
        calls = []

        def fn():
            calls.append(1)
            raise OSError("flaky")

        with pytest.raises(OSError) as info:
            NO_RETRY.call(fn)
        assert len(calls) == 1
        assert info.value.attempts == 1

    def test_transient_failure_retried_to_success(self):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("flaky")
            return "ok"

        value, attempts = RetryPolicy(max_attempts=3).call(fn)
        assert value == "ok"
        assert attempts == 3

    def test_non_transient_fails_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise KeyError("deterministic")

        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=5).call(fn)
        assert len(calls) == 1

    def test_exhausted_budget_annotates_attempts(self):
        with pytest.raises(OSError) as info:
            RetryPolicy(max_attempts=3).call(lambda: (_ for _ in ()).throw(OSError()))
        assert info.value.attempts == 3

    def test_is_transient_unwraps_stage_error(self):
        policy = RetryPolicy(max_attempts=2)
        transient = StageError("slice", "d" * 12, OSError("disk"))
        transient.__cause__ = OSError("disk")
        sticky = StageError("slice", "d" * 12, ValueError("degenerate"))
        sticky.__cause__ = ValueError("degenerate")
        assert policy.is_transient(transient)
        assert not policy.is_transient(sticky)
        assert policy.is_transient(CellTimeout(1.0))
        assert CellTimeout in TRANSIENT_ERRORS

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert NO_RETRY.delay(1) == 0.0


class TestTimeLimit:
    def test_fast_body_unaffected(self):
        with time_limit(5.0, what="fast"):
            value = 42
        assert value == 42
        # The timer is disarmed on exit.
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_slow_body_raises_cell_timeout(self):
        with pytest.raises(CellTimeout) as info:
            with time_limit(0.1, what="slow cell"):
                time.sleep(5.0)
        assert "slow cell" in str(info.value)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_none_and_zero_disable_the_budget(self):
        for budget in (None, 0, 0.0):
            with time_limit(budget) as armed:
                assert armed is False

    def test_nested_inner_timeout_names_the_inner_budget(self):
        """Regression (ISSUE 4): the inner budget fires and is
        attributed to the inner scope, not the outer one."""
        with pytest.raises(CellTimeout) as info:
            with time_limit(30.0, what="outer"):
                with time_limit(0.1, what="inner"):
                    time.sleep(5.0)
        assert "inner" in str(info.value)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_nested_exit_restores_outer_timer(self):
        """Regression (ISSUE 4 satellite): the inner ``time_limit``
        used to disarm the itimer outright on exit, silently voiding
        the outer wall-clock budget.  The outer timer must be re-armed
        with its remaining allowance and still fire."""
        with pytest.raises(CellTimeout) as info:
            with time_limit(0.4, what="outer"):
                with time_limit(30.0, what="inner"):
                    time.sleep(0.05)  # well under both budgets
                # Inner exited; outer must still be ticking.
                delay, _ = signal.getitimer(signal.ITIMER_REAL)
                assert 0.0 < delay <= 0.4
                time.sleep(5.0)  # blows the outer budget
        assert "outer" in str(info.value)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_nested_outer_expiry_fires_on_inner_exit(self):
        """An outer budget that expires while the inner timer holds
        SIGALRM is delivered (near-)immediately after the inner scope
        exits, not lost."""
        with pytest.raises(CellTimeout) as info:
            with time_limit(0.05, what="outer"):
                with time_limit(30.0, what="inner"):
                    time.sleep(0.2)  # outer expires while masked
                time.sleep(5.0)  # must never get this far
        assert "outer" in str(info.value)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestDiskCacheIntegrity:
    """The tamper-evident disk tier: verify, quarantine, recompute."""

    def _warm(self, root, value="good"):
        cache = DiskStageCache(root)
        cache.get_or_run("stage", "k1", lambda: value)
        return root / "stage" / "k1.pkl"

    def test_bitflip_quarantined_and_recomputed(self, tmp_path):
        path = self._warm(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        fresh = DiskStageCache(tmp_path)
        value, hit = fresh.get_or_run("stage", "k1", lambda: "recomputed")
        assert value == "recomputed" and not hit
        assert fresh.stats.integrity_failures == 1
        assert len(fresh.quarantined()) == 1
        # The recomputed entry replaced the bad one: a third instance
        # reads it back clean.
        third = DiskStageCache(tmp_path)
        assert third.get_or_run("stage", "k1", lambda: "NO") == ("recomputed", True)
        assert third.stats.integrity_failures == 0

    def test_truncated_entry_evicted_after_one_read(self, tmp_path):
        """Regression (ISSUE 3 satellite): a truncated entry costs one
        recompute, not a re-fail on every future lookup."""
        path = self._warm(tmp_path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)

        first = DiskStageCache(tmp_path)
        assert first.get_or_run("stage", "k1", lambda: "fresh") == ("fresh", False)
        assert first.stats.integrity_failures == 1
        # The damaged payload is out of the stage directory entirely -
        # quarantined, not deleted, so the evidence survives.
        assert len(first.quarantined()) == 1
        assert DiskStageCache(tmp_path).stats.integrity_failures == 0
        assert DiskStageCache(tmp_path).get_or_run(
            "stage", "k1", lambda: "NO"
        ) == ("fresh", True)

    def test_missing_sidecar_treated_as_tampering(self, tmp_path):
        path = self._warm(tmp_path)
        (tmp_path / "stage" / "k1.pkl.sha256").unlink()
        fresh = DiskStageCache(tmp_path)
        value, hit = fresh.get_or_run("stage", "k1", lambda: "recomputed")
        assert value == "recomputed" and not hit
        assert fresh.stats.integrity_failures == 1
        assert path.exists()  # republished by the recompute

    def test_sidecar_tamper_detected(self, tmp_path):
        self._warm(tmp_path)
        sidecar = tmp_path / "stage" / "k1.pkl.sha256"
        sidecar.write_text("0" * 64 + "\n")
        fresh = DiskStageCache(tmp_path)
        assert fresh.get_or_run("stage", "k1", lambda: "re") == ("re", False)
        assert fresh.stats.integrity_failures == 1

    def test_store_failure_counted_not_silent(self, tmp_path):
        """ISSUE 3 satellite: a failed _store is observable in stats."""
        faults.install(FaultPlan((
            FaultSpec("cache.store.stage", "raise-oserror", times=0),
        )))
        cache = DiskStageCache(tmp_path)
        value, hit = cache.get_or_run("stage", "k1", lambda: "v")
        assert value == "v" and not hit
        assert cache.stats.store_failures == 1
        # Memory tier still serves; disk never landed.
        assert cache.get_or_run("stage", "k1", lambda: "NO") == ("v", True)
        assert not (tmp_path / "stage" / "k1.pkl").exists()
        faults.uninstall()
        assert DiskStageCache(tmp_path).get_or_run(
            "stage", "k1", lambda: "again"
        ) == ("again", False)

    def test_unpicklable_store_counted(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("stage", "k1", lambda: (x for x in ()))
        assert cache.stats.store_failures == 1

    def test_stats_render_reports_failures(self, tmp_path):
        path = self._warm(tmp_path)
        path.write_bytes(b"garbage")
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("stage", "k1", lambda: "v")
        rendered = "\n".join(cache.stats.render())
        assert "integrity failures" in rendered
        assert "quarantined" in rendered
        payload = cache.stats.to_dict()
        assert payload["_cache"]["integrity_failures"] == 1

    def test_clean_stats_render_stays_quiet(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("stage", "k1", lambda: "v")
        rendered = "\n".join(cache.stats.render())
        assert "integrity failures" not in rendered
        assert "store failures" not in rendered

    def test_finalize_memo_persisted_and_verified(self, tmp_path):
        """``derived_put`` persists a verdict through the verified store;
        a fresh cache reads it back."""
        DiskStageCache(tmp_path).derived_put("k1", ("fp", "grade"))
        path = tmp_path / FINALIZE_STAGE / "k1.pkl"
        assert path.is_file()
        assert (tmp_path / FINALIZE_STAGE / "k1.pkl.sha256").is_file()
        fresh = DiskStageCache(tmp_path)
        assert fresh.derived_get("k1") is None  # memory tier only
        assert fresh._load(FINALIZE_STAGE, "k1") == (("fp", "grade"), True)

    def test_forged_memo_never_unpickled(self, tmp_path):
        """A memo entry is a verdict: a payload rewritten behind its
        sidecar is rejected *before* deserialization and quarantined."""
        import pickle

        fired = []

        class Payload:
            def __reduce__(self):
                return (fired.append, ("unpickled!",))

        DiskStageCache(tmp_path).derived_put("k1", ("fp", "grade"))
        (tmp_path / FINALIZE_STAGE / "k1.pkl").write_bytes(
            pickle.dumps(Payload())
        )
        fresh = DiskStageCache(tmp_path)
        assert fresh._load(FINALIZE_STAGE, "k1") == (None, False)
        assert fired == []
        assert fresh.stats.integrity_failures == 1
        assert len(fresh.quarantined()) == 1
