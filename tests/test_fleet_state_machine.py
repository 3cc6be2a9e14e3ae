"""Randomized fleet robustness: admit / cancel / step interleavings.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.pipeline.FleetScheduler` through random sequences of
admissions (small COARSE grids of one protected bar, random
priorities), cancellations and scheduling steps, and checks after every
rule that:

* every job's stage counters satisfy ``requested == scheduled +
  deduped`` and ``cutoff_cells <= cells_ok``;
* no node in the fleet index is claimed by a job the fleet has retired;
* every job that completes uncancelled reports its serial baseline
  fingerprints;

and, once the fleet is idle, that every job has completed and the node
index, the ready heap and the in-flight table are empty.

The inline (``jobs=1``) machine is tier-1.  The pooled (``jobs=2``)
machine also kills workers through :mod:`repro.faults`, so it runs with
the chaos suite (``OBFUSCADE_FAULTS=1``).
"""

import itertools
import os

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import faults
from repro.cad import COARSE
from repro.faults import FaultPlan, FaultSpec
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    DiskStageCache,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    ProcessChain,
)
from repro.pipeline.scheduler import ChainConfig, WorkerPool
from repro.printer.orientation import PrintOrientation

chaos = pytest.mark.skipif(
    os.environ.get("OBFUSCADE_FAULTS") != "1",
    reason="chaos suite; enable with OBFUSCADE_FAULTS=1",
)

ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ, PrintOrientation.YZ)

#: Bound on ``step`` calls while draining to idle: a lost task must
#: fail the test, not hang it.
DRAIN_STEPS = 400


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def warm(protected, tmp_path_factory):
    """Serial baseline fingerprints, and the cache directory the
    baseline warmed: every machine's fleet opens a fresh
    :class:`DiskStageCache` over it (warm artifacts, empty memo)."""
    root = tmp_path_factory.mktemp("fleet-machine-cache")
    report = ParallelSweep(jobs=1, cache_dir=str(root)).run(
        protected.model, (COARSE,), ORIENTATIONS, assess=assess_print,
    )
    assert report.ok
    baseline = {c.orientation: c.fingerprint for c in report.cells}
    return root, baseline


class FleetMachine(RuleBasedStateMachine):
    """Random admit / cancel / step sequences against one fleet."""

    #: Set per test: the model, the warm cache root, the baseline.
    model = None
    root = None
    baseline = None
    workers = 1
    max_admits = 4

    jobs = Bundle("jobs")

    def __init__(self):
        super().__init__()
        self.config = ChainConfig.of(ProcessChain())
        self.ids = itertools.count()
        self.admitted = {}
        self.done = {}
        self.pool = None
        self.fleet = None

    def _open(self, pool=None):
        self.pool = pool
        self.fleet = FleetScheduler(
            DiskStageCache(self.root), jobs=self.workers, pool=pool
        )

    @initialize()
    def open_fleet(self):
        self._open()

    @rule(
        target=jobs,
        cells=st.lists(
            st.sampled_from(ORIENTATIONS), min_size=1, max_size=3,
            unique=True,
        ),
        priority=st.integers(0, 9),
    )
    def admit(self, cells, priority):
        if len(self.admitted) >= self.max_admits:
            return None
        job_id = f"job-{next(self.ids)}"
        job = FleetJob(
            job_id, self.model, [(COARSE, o) for o in cells], self.config,
            assess=assess_print, priority=priority,
            on_complete=lambda j: self.done.setdefault(j.job_id, j),
        )
        self.fleet.admit(job)
        self.admitted[job_id] = job
        return job_id

    @rule(job_id=jobs)
    def cancel(self, job_id):
        if job_id is not None:
            self.fleet.cancel(job_id)

    @rule(steps=st.integers(1, 10))
    def step(self, steps):
        for _ in range(steps):
            self.fleet.step(timeout=0.05)

    @invariant()
    def counters_are_exact(self):
        for job in self.admitted.values():
            for counters in job.counters.stages.values():
                assert counters.requested == (
                    counters.scheduled + counters.deduped
                )
            assert job.counters.cutoff_cells <= len(job.results)

    @invariant()
    def no_claim_names_a_retired_job(self):
        if self.fleet is None:
            return
        live = set(self.fleet._jobs)
        for node in self.fleet._nodes.values():
            assert {job_id for job_id, _ in node.claims} <= live

    @invariant()
    def completed_jobs_match_the_baseline(self):
        for job in self.done.values():
            if job.cancelled:
                assert job.report is None
                continue
            assert job.report is not None and job.report.ok
            assert {
                c.orientation: c.fingerprint for c in job.report.cells
            } == {o.value: self.baseline[o.value] for _, o in job.grid}

    def teardown(self):
        try:
            if self.fleet is None:
                return
            for _ in range(DRAIN_STEPS):
                if not self.fleet.has_work():
                    break
                self.fleet.step(timeout=0.05)
            assert not self.fleet.has_work(), "fleet did not go idle"
            self.completed_jobs_match_the_baseline()
            assert set(self.done) == set(self.admitted)
            assert self.fleet._nodes == {}
            assert self.fleet._ready == []
            assert self.fleet._inflight == {}
        finally:
            if self.fleet is not None:
                self.fleet.shutdown()
            if self.pool is not None:
                self.pool.shutdown()


MACHINE_SETTINGS = settings(
    max_examples=20,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_inline_fleet_state_machine(protected, warm):
    root, baseline = warm

    class Inline(FleetMachine):
        pass

    Inline.model, Inline.root, Inline.baseline = (
        protected.model, root, baseline,
    )
    run_state_machine_as_test(Inline, settings=MACHINE_SETTINGS)


@chaos
def test_pooled_fleet_state_machine_with_worker_deaths(
    protected, warm, tmp_path
):
    """``jobs=2`` on a private pool per example, whose workers are
    killed up to three times (one more than the fleet's rebuild budget,
    so some examples degrade to inline execution)."""
    root, baseline = warm
    scratch = itertools.count()

    class Pooled(FleetMachine):
        workers = 2
        max_admits = 3

        @initialize(kills=st.integers(0, 3))
        def open_fleet(self, kills):
            faults.install(FaultPlan(
                (FaultSpec("worker", "kill-worker", times=kills),)
                if kills else (),
                scratch=str(tmp_path / f"faults-{next(scratch)}"),
            ))
            self._open(pool=WorkerPool(self.workers))

        def teardown(self):
            try:
                super().teardown()
            finally:
                faults.uninstall()

    Pooled.model, Pooled.root, Pooled.baseline = (
        protected.model, root, baseline,
    )
    run_state_machine_as_test(
        Pooled,
        settings=settings(MACHINE_SETTINGS, max_examples=25),
    )
