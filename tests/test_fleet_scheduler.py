"""The concurrent cross-job fleet scheduler (ISSUE 10 tentpole).

The acceptance contract: jobs admitted concurrently into one
:class:`~repro.pipeline.FleetScheduler` merge their execution graphs
at ``(stage, content digest)`` granularity - shared nodes execute
exactly once fleet-wide (proved by the ``cross_job_deduped`` /
``fanout_results`` counters, not cache-hit luck) - while every job's
outcome fingerprints stay bit-identical to running that job alone
serially.  Cancellation releases only the nodes no surviving job
claims, and priorities order the fleet so an urgent job admitted
alongside a patient one finishes first.  A cell the fleet has already
finalized is cut off at admission: it resolves from the fleet's
finalize memo with no node claim and no task.
"""

import pytest

from repro.cad import COARSE, StlResolution
from repro.pipeline.cache import CacheStats
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    DiskStageCache,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    PipelineConfigError,
    ProcessChain,
    StageCache,
)
from repro.pipeline.fleet import RUNNING
from repro.pipeline.scheduler import ChainConfig
from repro.printer.orientation import PrintOrientation

XY, XZ, YZ = (
    PrintOrientation.XY, PrintOrientation.XZ, PrintOrientation.YZ,
)
MID = StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012)

#: Overlapping grids: both jobs need the coarse/x-y cell, so coarse
#: tessellate + resolve (and the whole shared cell's chain) collide.
GRID_A = [(COARSE, XY), (COARSE, XZ)]
GRID_B = [(COARSE, XY), (COARSE, YZ)]


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def config():
    return ChainConfig.of(ProcessChain())


def _serial_fingerprints(protected, grid, cache_dir):
    """Baseline: the grid run alone, serially, on its own cold cache."""
    report = ParallelSweep(jobs=1, cache_dir=str(cache_dir)).run(
        protected.model,
        list(dict.fromkeys(r for r, _ in grid)),
        list(dict.fromkeys(o for _, o in grid)),
        assess=assess_print,
    )
    wanted = {(r.name, o.value) for r, o in grid}
    return {
        (c.resolution, c.orientation): c.fingerprint
        for c in report.cells
        if (c.resolution, c.orientation) in wanted
    }


def _fingerprints(job):
    return {
        (c.resolution, c.orientation): c.fingerprint
        for c in job.report.cells
    }


@pytest.fixture(scope="module")
def merged(protected, config, tmp_path_factory):
    """Two overlapping jobs admitted together, run to completion."""
    root = tmp_path_factory.mktemp("fleet-merged")
    fleet = FleetScheduler(DiskStageCache(root / "cache"), jobs=1)
    completed = []
    job_a = FleetJob("job-a", protected.model, GRID_A, config,
                     assess=assess_print,
                     on_complete=lambda j: completed.append(j.job_id))
    job_b = FleetJob("job-b", protected.model, GRID_B, config,
                     assess=assess_print,
                     on_complete=lambda j: completed.append(j.job_id))
    fleet.admit(job_a)
    fleet.admit(job_b)
    fleet.run_until_idle()
    baselines = {
        "job-a": _serial_fingerprints(protected, GRID_A,
                                      root / "baseline-a"),
        "job-b": _serial_fingerprints(protected, GRID_B,
                                      root / "baseline-b"),
    }
    return {
        "fleet": fleet, "a": job_a, "b": job_b,
        "completed": completed, "baselines": baselines,
    }


class TestCrossJobMerging:
    def test_both_jobs_complete(self, merged):
        assert sorted(merged["completed"]) == ["job-a", "job-b"]
        assert merged["a"].report is not None and merged["a"].report.ok
        assert merged["b"].report is not None and merged["b"].report.ok

    def test_shared_nodes_execute_once_fleet_wide(self, merged):
        """Both jobs use one coarse tessellation; the fleet runs it
        once, attributed to exactly one job."""
        for stage in ("tessellate", "resolve"):
            executed = (
                merged["a"].counters.stage(stage).executed
                + merged["b"].counters.stage(stage).executed
            )
            assert executed == 1, f"{stage} executed {executed}x fleet-wide"

    def test_cross_job_dedupe_counters(self, merged):
        """The later-admitted job folds its shared cell onto job-a's
        nodes; the counters prove it (the ISSUE 10 acceptance gate)."""
        a, b = merged["a"].counters, merged["b"].counters
        assert a.cross_job_deduped == 0  # creator saw no other job yet
        assert b.cross_job_deduped >= 1
        assert b.fanout_results >= 1  # results delivered, not re-run
        # Dedupe is exact: every one of b's stage requests either
        # scheduled a new node or folded onto an existing one.
        totals = [c for c in b.stages.values()]
        assert all(
            c.requested == c.scheduled + c.deduped for c in totals
        )

    def test_fingerprints_bit_identical_to_serial_runs(self, merged):
        """Cross-job sharing is an execution plan, not a result change:
        each job's fingerprints match its own solo serial run."""
        assert _fingerprints(merged["a"]) == merged["baselines"]["job-a"]
        assert _fingerprints(merged["b"]) == merged["baselines"]["job-b"]

    def test_shared_cell_stage_log_is_free_for_consumer(self, merged):
        """The job that did NOT execute a shared node records it as a
        free hit - per-job accounting splits from shared execution."""
        a, b = merged["a"], merged["b"]
        # The shared coarse/x-y cell is index 0 in both grids.
        log_a = {e.name: e for e in a.report.cells[0].stage_log}
        log_b = {e.name: e for e in b.report.cells[0].stage_log}
        assert log_a["tessellate"].digest == log_b["tessellate"].digest
        consumers = [
            log for log in (log_a, log_b)
            if log["tessellate"].cache_hit
            and log["tessellate"].seconds == 0.0
        ]
        assert len(consumers) >= 1

    def test_rejects_duplicate_admission_and_empty_grid(
        self, merged, protected, config
    ):
        with pytest.raises(PipelineConfigError):
            FleetJob("job-x", protected.model, [], config)
        fleet = merged["fleet"]
        job = FleetJob("job-c", protected.model, GRID_A, config)
        fleet.admit(job)
        with pytest.raises(PipelineConfigError):
            fleet.admit(job)
        assert fleet.cancel("job-c")

    def test_pooled_fleet_rejects_an_in_memory_cache(self):
        """Pool workers open the fleet's cache by its root directory,
        which an in-memory cache does not have."""
        with pytest.raises(PipelineConfigError):
            FleetScheduler(StageCache(), jobs=2)


class TestCancellation:
    def test_cancel_while_queued_releases_unshared_nodes(
        self, protected, config, tmp_path
    ):
        """Cancelling before any execution: nodes only the doomed job
        claims are released (and counted); shared nodes survive and
        the surviving job's results are untouched."""
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=1)
        done = []
        survivor = FleetJob("survivor", protected.model, GRID_A, config,
                            assess=assess_print,
                            on_complete=lambda j: done.append(j.job_id))
        doomed = FleetJob("doomed", protected.model, GRID_B, config,
                          assess=assess_print,
                          on_complete=lambda j: done.append(j.job_id))
        fleet.admit(survivor)
        fleet.admit(doomed)
        assert fleet.cancel("doomed") is True
        assert done == ["doomed"]
        assert doomed.cancelled and doomed.report is None
        # The coarse/y-z chain was doomed-only: released unexecuted.
        assert doomed.counters.cancelled_nodes >= 1
        fleet.run_until_idle()
        assert done == ["doomed", "survivor"]
        assert survivor.report.ok
        assert _fingerprints(survivor) == _serial_fingerprints(
            protected, GRID_A, tmp_path / "baseline"
        )
        # Unknown / already-finished jobs are not cancellable.
        assert fleet.cancel("doomed") is False
        assert fleet.cancel("survivor") is False

    def test_cancel_midway_keeps_survivor_exact(
        self, protected, config, tmp_path
    ):
        """Cancelling after execution started: work already done
        (possibly attributed to the doomed job) still serves the
        survivors, and their fingerprints stay serial-identical."""
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=1)
        survivor = FleetJob("survivor", protected.model, GRID_A, config,
                            assess=assess_print)
        doomed = FleetJob("doomed", protected.model, GRID_B, config,
                          assess=assess_print)
        fleet.admit(doomed)   # admitted first: executes the shared nodes
        fleet.admit(survivor)
        # Let a few nodes (the shared tessellate among them) execute.
        for _ in range(3):
            assert fleet.step()
        assert fleet.cancel("doomed") is True
        fleet.run_until_idle()
        assert survivor.report is not None and survivor.report.ok
        assert _fingerprints(survivor) == _serial_fingerprints(
            protected, GRID_A, tmp_path / "baseline"
        )

    def test_node_running_at_cancel_leaves_the_index(
        self, protected, config, tmp_path
    ):
        """A node still running when its only job is cancelled leaves
        the index once its result comes back: an idle fleet holds no
        node at all."""
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=2)
        try:
            fleet.admit(FleetJob("doomed", protected.model, [(COARSE, XY)],
                                 config, assess=assess_print))
            fleet.step(timeout=0)  # submits tessellate, the only ready node
            running = [
                key for key, node in fleet._nodes.items()
                if node.state is RUNNING
            ]
            assert [key[0] for key in running] == ["tessellate"]
            assert fleet.cancel("doomed") is True
            _drive(fleet)
            assert fleet._nodes == {}
            assert fleet._ready == []
        finally:
            fleet.shutdown()


class TestPriorities:
    def test_urgent_job_overtakes_patient_backlog(
        self, protected, config, tmp_path
    ):
        """Priority inversion check: a high-priority job admitted
        *after* a low-priority one finishes first - ready nodes rank
        by the most urgent claiming job."""
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=1)
        order = []
        patient = FleetJob(
            "patient", protected.model, [(COARSE, XY), (COARSE, XZ)],
            config, assess=assess_print, priority=8,
            on_complete=lambda j: order.append(j.job_id),
        )
        urgent = FleetJob(
            "urgent", protected.model, [(MID, YZ)],
            config, assess=assess_print, priority=1,
            on_complete=lambda j: order.append(j.job_id),
        )
        fleet.admit(patient)
        fleet.admit(urgent)  # later arrival, higher urgency
        fleet.run_until_idle()
        assert order == ["urgent", "patient"]
        assert urgent.report.ok and patient.report.ok


def _exploding_assess(outcome):
    raise ValueError("grader exploded")


class TestKeepGoingFalse:
    def test_failed_cell_completes_the_job(self, protected, config, tmp_path):
        """keep_going=False releases the victim job's other cells; the
        job must still complete with exactly that one error instead of
        waiting forever on the released cells."""
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=1,
                               keep_going=False)
        job = fleet.admit(FleetJob("doomed", protected.model, GRID_A, config,
                                   assess=_exploding_assess))
        # 16 nodes + 2 finals run one per step; the bound leaves room
        # but fails fast if the fleet never goes idle.
        for _ in range(200):
            if not fleet.has_work():
                break
            fleet.step()
        else:
            pytest.fail("fleet still busy after 200 steps")
        assert job.report is not None
        assert len(job.report.errors) == 1
        assert job.report.errors[0].error_type == "ValueError"
        assert job.report.cells == []


def _drive(fleet, bound=600):
    """Step ``fleet`` until idle; fail instead of hanging."""
    for _ in range(bound):
        if not fleet.has_work():
            return
        fleet.step(timeout=0.5)
    pytest.fail(f"fleet still busy after {bound} steps")


def _verdict_factory(tag):
    return lambda outcome: tag


#: Calls of :func:`_flaky_assess`; reset by the test that uses it.
_FLAKY_CALLS = []


def _flaky_assess(outcome):
    """A module-level (stable-identity) grader whose first verdict is
    lost to an error."""
    _FLAKY_CALLS.append(outcome)
    if len(_FLAKY_CALLS) == 1:
        raise ValueError("first verdict lost")
    return "graded"


class TestEarlyCutoff:
    def test_closures_from_one_factory_do_not_share_a_verdict(
        self, protected, config
    ):
        """Two lambdas share a qualname but judge differently: neither
        may be served the other's memoized verdict."""
        fleet = FleetScheduler(StageCache(), jobs=1)
        cell = [(COARSE, XY)]
        a = fleet.admit(FleetJob("a", protected.model, cell, config,
                                 assess=_verdict_factory("A")))
        _drive(fleet)
        b = fleet.admit(FleetJob("b", protected.model, cell, config,
                                 assess=_verdict_factory("B")))
        _drive(fleet)
        assert a.report.cells[0].assessment == "A"
        assert b.report.cells[0].assessment == "B"
        assert b.counters.cutoff_cells == 0
        assert fleet.cutoff_cells == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_job_resolves_at_admission(
        self, protected, config, tmp_path, jobs
    ):
        fleet = FleetScheduler(DiskStageCache(tmp_path / "cache"), jobs=jobs)
        try:
            first = fleet.admit(FleetJob("first", protected.model, GRID_A,
                                         config, assess=assess_print))
            _drive(fleet)
            fired = []
            second = fleet.admit(FleetJob(
                "second", protected.model, GRID_A, config,
                assess=assess_print,
                on_complete=lambda j: fired.append(j.job_id),
            ))
            # Complete already, but the callback belongs to the
            # driving thread: has_work() holds until step() fires it.
            assert second.report is not None and second.report.ok
            assert fired == [] and fleet.has_work()
            assert fleet.step() is True
            assert fired == ["second"] and not fleet.has_work()
        finally:
            fleet.shutdown()
        counters = second.counters
        assert counters.total_requested == 0
        assert counters.total_executed == 0
        assert counters.cutoff_cells == len(GRID_A)
        assert fleet.cutoff_cells == len(GRID_A)
        assert second.report.stats == CacheStats()
        assert second.transport.tasks == 0
        assert _fingerprints(second) == _fingerprints(first)
        assert [c.assessment for c in second.report.cells] == [
            c.assessment for c in first.report.cells
        ]
        for cell in second.report.cells:
            assert cell.attempts == 1
            assert cell.stage_log
            assert all(e.cache_hit and e.seconds == 0.0
                       for e in cell.stage_log)
        witnessed = [
            s for s in second.spans
            if s["name"] == "sweep.cell" and s["attrs"].get("cutoff")
        ]
        assert sorted(s["attrs"]["fingerprint"] for s in witnessed) == \
            sorted(_fingerprints(first).values())

    def test_partial_cutoff_claims_only_new_cells(
        self, protected, config, tmp_path
    ):
        fleet = FleetScheduler(StageCache(), jobs=1)
        fleet.admit(FleetJob("a", protected.model, GRID_A, config,
                             assess=assess_print))
        _drive(fleet)
        b = fleet.admit(FleetJob("b", protected.model, GRID_B, config,
                                 assess=assess_print))
        assert b.report is None  # the coarse/y-z cell still has to run
        assert b.counters.cutoff_cells == 1
        # Only the new cell's stages were requested, and the
        # requested == scheduled + deduped accounting still holds.
        new_cell = len(b.cell_digests[1]) - 1  # minus the model root
        assert b.counters.total_requested == new_cell
        assert all(c.requested == c.scheduled + c.deduped
                   for c in b.counters.stages.values())
        assert [j.job_id for j in fleet.run_until_idle()] == ["b"]
        assert b.report.ok
        assert _fingerprints(b) == _serial_fingerprints(
            protected, GRID_B, tmp_path / "baseline"
        )

    def test_failed_verdict_is_recomputed_not_memoized(
        self, protected, config
    ):
        _FLAKY_CALLS.clear()
        fleet = FleetScheduler(StageCache(), jobs=1)
        cell = [(COARSE, XY)]
        first = fleet.admit(FleetJob("first", protected.model, cell, config,
                                     assess=_flaky_assess))
        _drive(fleet)
        assert [e.error_type for e in first.report.errors] == ["ValueError"]
        second = fleet.admit(FleetJob("second", protected.model, cell,
                                      config, assess=_flaky_assess))
        assert second.counters.cutoff_cells == 0
        _drive(fleet)
        assert second.report.cells[0].assessment == "graded"
        assert len(_FLAKY_CALLS) == 2
        # The successful verdict is memoized: a third job is cut off.
        third = fleet.admit(FleetJob("third", protected.model, cell,
                                     config, assess=_flaky_assess))
        assert third.counters.cutoff_cells == 1
        assert third.report.cells[0].assessment == "graded"
        assert len(_FLAKY_CALLS) == 2

    def test_cancel_after_admission_time_completion(
        self, protected, config
    ):
        fleet = FleetScheduler(StageCache(), jobs=1)
        cell = [(COARSE, XY)]
        fleet.admit(FleetJob("warm", protected.model, cell, config,
                             assess=assess_print))
        _drive(fleet)
        fired = []
        job = fleet.admit(FleetJob(
            "late", protected.model, cell, config, assess=assess_print,
            on_complete=lambda j: fired.append(j.job_id),
        ))
        assert fleet.cancel("late") is False
        assert job.report is not None and not job.cancelled
        _drive(fleet)
        assert fired == ["late"]
