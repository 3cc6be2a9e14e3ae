"""Fault-injection (chaos) suite: every recovery path, proven to fire.

Unit tests for the injector itself run unconditionally.  The chaos
tests - which run real sweeps with armed faults - are gated behind
``OBFUSCADE_FAULTS=1`` (the CI chaos job sets it) so the plain tier-1
run stays fast.

The load-bearing contract (ISSUE 3 satellite): a chaos run and a
fault-free serial run must report *identical* ``outcome_fingerprint``
hashes for every cell that succeeds - recovery may cost wall-clock,
never correctness.
"""

import json
import os
import time

import pytest

from repro import faults
from repro.cad import COARSE
from repro.faults import KILL_EXIT_CODE, FaultPlan, FaultSpec
from repro.faults import injector as _injector
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    DiskStageCache,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    ProcessChain,
    RetryPolicy,
)
from repro.pipeline.disk import FINALIZE_STAGE
from repro.pipeline.scheduler import ChainConfig
from repro.printer.orientation import PrintOrientation

chaos = pytest.mark.skipif(
    os.environ.get("OBFUSCADE_FAULTS") != "1",
    reason="chaos suite; enable with OBFUSCADE_FAULTS=1",
)

GRID_RESOLUTIONS = (COARSE,)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def baseline(protected):
    """Fault-free serial fingerprints: the ground truth every chaos
    run must reproduce."""
    report = ParallelSweep(jobs=1).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
        assess=assess_print,
    )
    assert report.ok
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _fingerprints(report):
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _assess_at_fault_site(outcome):
    """``assess_print`` behind an ``assess`` fault site (a module-level
    function, so its verdicts are memoized)."""
    faults.fire("assess")
    return assess_print(outcome)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            (
                FaultSpec("worker", "kill-worker", times=2, match="Coarse/x-y"),
                FaultSpec("stage.slice", "delay", times=0, arg=1.5),
            ),
            scratch="/tmp/scratch",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FaultSpec("worker", "set-on-fire")

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            FaultSpec("worker", "kill-worker", times=-1)


class TestInjector:
    def test_noop_without_plan(self):
        faults.fire("stage.slice")  # must not raise
        faults.tamper_file("cache.load.slice", "/nonexistent")

    def test_budget_spent_once(self):
        faults.install(FaultPlan((
            FaultSpec("stage.slice", "raise-oserror", times=1),
        )))
        with pytest.raises(OSError):
            faults.fire("stage.slice")
        faults.fire("stage.slice")  # budget exhausted: no-op

    def test_unlimited_budget(self):
        faults.install(FaultPlan((
            FaultSpec("stage.slice", "raise-oserror", times=0),
        )))
        for _ in range(3):
            with pytest.raises(OSError):
                faults.fire("stage.slice")

    def test_scratch_budget_shared_across_processes(self, tmp_path):
        """Token files make 'fire exactly once' hold fleet-wide."""
        plan = FaultPlan(
            (FaultSpec("worker", "raise-oserror", times=1),),
            scratch=str(tmp_path),
        )
        faults.install(plan)
        with pytest.raises(OSError):
            faults.fire("worker")
        # A 'different process' (fresh local counters, same scratch)
        # cannot claim the budget again.
        _injector._local_spend.clear()
        faults.fire("worker")
        assert (tmp_path / "fault-0-0").exists()

    def test_site_globs_and_context_match(self):
        faults.install(FaultPlan((
            FaultSpec("stage.*", "raise-oserror", times=0, match="Coarse/x-z"),
        )))
        faults.fire("stage.slice", context="Fine/x-y")  # context mismatch
        faults.fire("worker", context="Coarse/x-z")     # site mismatch
        with pytest.raises(OSError):
            faults.fire("stage.gcode", context="Coarse/x-z")

    def test_master_switch_disables_everything(self, monkeypatch):
        faults.install(FaultPlan((
            FaultSpec("stage.slice", "raise-oserror", times=0),
        )))
        monkeypatch.setenv(faults.SWITCH_ENV, "0")
        faults.fire("stage.slice")
        monkeypatch.delenv(faults.SWITCH_ENV)
        with pytest.raises(OSError):
            faults.fire("stage.slice")

    def test_plan_propagates_through_environment(self):
        """Pool workers inherit the plan via OBFUSCADE_FAULT_PLAN."""
        plan = FaultPlan((FaultSpec("stage.slice", "raise-oserror"),))
        faults.install(plan)
        # Simulate a spawned child: no local plan object, env only.
        _injector._plan = None
        _injector._plan_env_raw = None
        assert faults.active_plan() == plan

    def test_mutate_export_poisons_one_vertex(self, protected):
        import numpy as np

        export = protected.model.export_stl(COARSE)
        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", arg=3),
        )))
        poisoned = faults.mutate_export("stage.tessellate.output", export)
        assert not np.isfinite(
            poisoned.mesh.vertices[poisoned.mesh.faces[3, 0]]
        ).all()

    def test_tamper_file_truncates(self, tmp_path):
        target = tmp_path / "entry.pkl"
        target.write_bytes(b"0123456789abcdef")
        faults.install(FaultPlan((
            FaultSpec("cache.load.*", "truncate-file", times=1),
        )))
        faults.tamper_file("cache.load.slice", target)
        assert target.stat().st_size == 8
        faults.tamper_file("cache.load.slice", target)  # budget spent
        assert target.stat().st_size == 8

    def test_tamper_file_corrupts(self, tmp_path):
        target = tmp_path / "entry.pkl"
        data = b"0123456789abcdef"
        target.write_bytes(data)
        faults.install(FaultPlan((
            FaultSpec("cache.load.*", "corrupt-file", times=1),
        )))
        faults.tamper_file("cache.load.slice", target)
        assert target.read_bytes() != data
        assert target.stat().st_size == len(data)

    def test_kill_exit_code_is_distinctive(self):
        assert KILL_EXIT_CODE == 86


@chaos
class TestChaosSweep:
    """End-to-end recovery proofs: armed faults against real sweeps."""

    def test_worker_death_resubmits_lost_cells(
        self, protected, baseline, tmp_path
    ):
        """ISSUE 3 satellite: determinism under injected worker death."""
        faults.install(FaultPlan(
            (FaultSpec("worker", "kill-worker", times=1),),
            scratch=str(tmp_path / "scratch"),
        ))
        report = ParallelSweep(
            jobs=2, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert report.pool_rebuilds >= 1
        assert not report.degraded_to_serial
        assert _fingerprints(report) == baseline

    def test_worker_death_in_overlapping_fleet_jobs(
        self, protected, baseline, tmp_path
    ):
        """A worker death mid-fleet requeues the lost task: both
        overlapping jobs complete instead of waiting on it forever."""
        config = ChainConfig.of(ProcessChain())
        faults.install(FaultPlan(
            (FaultSpec("worker", "kill-worker", times=1),),
            scratch=str(tmp_path / "scratch"),
        ))
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=2)
        grid = [(COARSE, o) for o in GRID_ORIENTATIONS]
        jobs = [
            fleet.admit(FleetJob(name, protected.model, cells, config,
                                 assess=assess_print))
            for name, cells in (("both", grid), ("one", grid[1:]))
        ]
        # Bounded drive: a lost task must fail the test, not wedge it.
        deadline = time.monotonic() + 180.0
        try:
            while fleet.has_work():
                assert time.monotonic() < deadline, "fleet wedged"
                fleet.step()
        finally:
            fleet.shutdown()
        for job in jobs:
            assert job.report is not None and job.report.ok
            assert job.report.pool_rebuilds >= 1
            assert _fingerprints(job.report) == {
                key: baseline[key] for key in _fingerprints(job.report)
            }
        assert len(_fingerprints(jobs[0].report)) == 2

    def test_job_reports_only_rebuilds_since_its_admission(
        self, protected, baseline, tmp_path
    ):
        """A long-lived fleet's later job does not inherit the pool
        rebuilds an earlier job's worker death caused."""
        config = ChainConfig.of(ProcessChain())
        faults.install(FaultPlan(
            (FaultSpec("worker", "kill-worker", times=1),),
            scratch=str(tmp_path / "scratch"),
        ))
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=2)
        deadline = time.monotonic() + 180.0
        try:
            reports = []
            for name, grid in (
                ("a", [(COARSE, PrintOrientation.XY)]),
                ("b", [(COARSE, PrintOrientation.XZ)]),
            ):
                job = fleet.admit(FleetJob(name, protected.model, grid,
                                           config, assess=assess_print))
                while fleet.has_work():
                    assert time.monotonic() < deadline, "fleet wedged"
                    fleet.step()
                reports.append(job.report)
                faults.uninstall()
        finally:
            fleet.shutdown()
        first, second = reports
        assert first.ok and first.pool_rebuilds >= 1
        assert second.ok and second.pool_rebuilds == 0
        assert second.transport.tasks > 0
        assert {**_fingerprints(first), **_fingerprints(second)} == baseline

    def test_persistent_worker_death_degrades_to_serial(
        self, protected, baseline, tmp_path
    ):
        """When every pool dies, the sweep still completes in-process."""
        faults.install(FaultPlan((
            FaultSpec("worker", "kill-worker", times=0),
        )))
        report = ParallelSweep(jobs=2, cache_dir=str(tmp_path / "cache")).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert report.degraded_to_serial
        assert _fingerprints(report) == baseline

    def test_nan_vertices_fail_one_cell_not_the_sweep(
        self, protected, baseline
    ):
        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", times=1),
        )))
        report = ParallelSweep(jobs=1).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert len(report.errors) == 1
        error = report.errors[0]
        assert error.stage == "tessellate"
        assert "non-finite" in error.message
        assert not error.transient
        assert report.failed_cells == [(error.resolution, error.orientation)]
        # The surviving cell is bit-identical to the fault-free run.
        for cell in report.cells:
            assert baseline[(cell.resolution, cell.orientation)] == cell.fingerprint

    def test_tampered_cache_entry_quarantined_and_recomputed(
        self, protected, baseline, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        warm = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert warm.ok
        faults.install(FaultPlan((
            FaultSpec("cache.load.deposit", "corrupt-file", times=1),
        )))
        rerun = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert rerun.ok
        assert rerun.stats.integrity_failures == 1
        assert _fingerprints(rerun) == baseline
        assert (cache_dir / "quarantine").is_dir()

    def test_tampered_memo_during_pooled_resume_recomputed(
        self, protected, baseline, tmp_path
    ):
        """A memo entry corrupted as a jobs=2 resume reads it is
        quarantined in the parent, counted, and its cell recomputed
        to the serial fingerprint."""
        cache_dir = tmp_path / "cache"
        warm = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert warm.ok
        faults.install(FaultPlan((
            FaultSpec(f"cache.load.{FINALIZE_STAGE}", "corrupt-file",
                      times=1),
        )))
        resumed = ParallelSweep(
            jobs=2, cache_dir=str(cache_dir), resume=True
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert resumed.ok
        assert resumed.scheduler.cutoff_cells == 1
        assert resumed.stats.integrity_failures == 1
        assert _fingerprints(resumed) == baseline
        assert (cache_dir / "quarantine").is_dir()

    def test_failed_cell_not_persisted_so_resume_recomputes_it(
        self, protected, baseline, tmp_path
    ):
        """A cell whose assess raised (keep_going) leaves no memo
        entry: a resume cuts off the finished cell and recomputes
        exactly the failed one."""
        cache_dir = tmp_path / "cache"
        faults.install(FaultPlan((
            FaultSpec("assess", "raise-oserror", times=1),
        )))
        first = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=_assess_at_fault_site,
        )
        faults.uninstall()
        assert len(first.errors) == 1 and len(first.cells) == 1
        assert len(list((cache_dir / FINALIZE_STAGE).glob("*.pkl"))) == 1
        resumed = ParallelSweep(
            jobs=1, cache_dir=str(cache_dir), resume=True
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=_assess_at_fault_site,
        )
        assert resumed.ok
        assert resumed.scheduler.cutoff_cells == 1
        assert _fingerprints(resumed) == baseline
        # The failed cell's verdict landed only now.
        assert len(list((cache_dir / FINALIZE_STAGE).glob("*.pkl"))) == 2

    def test_transient_oserror_retried_to_success(
        self, protected, baseline
    ):
        faults.install(FaultPlan((
            FaultSpec("stage.toolpath", "raise-oserror", times=1),
        )))
        report = ParallelSweep(
            jobs=1, retry=RetryPolicy(max_attempts=2, backoff_s=0.0)
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert max(c.attempts for c in report.cells) == 2
        assert _fingerprints(report) == baseline

    def test_transient_oserror_without_retry_fails_cell(self, protected):
        faults.install(FaultPlan((
            FaultSpec("stage.toolpath", "raise-oserror", times=1),
        )))
        report = ParallelSweep(jobs=1).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert len(report.errors) == 1
        assert report.errors[0].transient  # a retry budget would have saved it
        assert report.errors[0].stage == "toolpath"

    def test_stage_delay_past_budget_times_out(self, protected):
        # Budget is far above an honest cell's cost (~1s) but far below
        # the injected stall, so exactly the stalled cell trips it.
        faults.install(FaultPlan((
            FaultSpec("stage.slice", "delay", times=1, arg=60.0),
        )))
        report = ParallelSweep(jobs=1, cell_timeout_s=8.0).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert len(report.errors) == 1
        assert report.errors[0].error_type == "CellTimeout"
        assert report.errors[0].transient
        assert len(report.cells) == 1  # the other cell completed

    def test_timeout_rescued_by_retry(self, protected, baseline):
        faults.install(FaultPlan((
            FaultSpec("stage.slice", "delay", times=1, arg=60.0),
        )))
        report = ParallelSweep(
            jobs=1, cell_timeout_s=8.0,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert max(c.attempts for c in report.cells) == 2
        assert _fingerprints(report) == baseline

    def test_keep_going_false_aborts(self, protected):
        from repro.pipeline import SweepAborted

        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", times=1),
        )))
        with pytest.raises(SweepAborted) as info:
            ParallelSweep(jobs=1, keep_going=False).run(
                protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            )
        assert info.value.error.stage == "tessellate"


@chaos
class TestChaosCli:
    def test_failed_cell_reported_and_exit_code(self, capsys):
        from repro.cli import main

        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", times=1),
        )))
        rc = main([
            "sweep", "--seed", "7",
            "--resolutions", "coarse", "--orientations", "x-y,x-z",
            "--keep-going", "--stats",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAILED" in out and "tessellate" in out
        assert "failed cells: 1" in out

    def test_abort_without_keep_going(self, capsys):
        from repro.cli import main

        faults.install(FaultPlan((
            FaultSpec("stage.tessellate.output", "nan-vertices", times=1),
        )))
        rc = main([
            "sweep", "--seed", "7",
            "--resolutions", "coarse", "--orientations", "x-y",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "sweep aborted" in err
        assert "--keep-going" in err
