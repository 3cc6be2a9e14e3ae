"""Process-parallel settings sweeps over the staged chain.

A settings grid search - the defender's key search and the
counterfeiter's brute force alike - is embarrassingly parallel across
grid cells, but the cells share work: tessellation and coincident-face
resolution depend only on the resolution, not the orientation.
:class:`ParallelSweep` is the sweep facade: it expands the grid and
runs it as a fleet of one job on a private
:class:`~repro.pipeline.fleet.FleetScheduler`.
The fleet merges the cells into one ``(stage, content digest)`` node
set, so shared upstream nodes are *scheduled exactly once* (not merely
deduplicated by cache races), and executes the nodes inline on the
sweep's cache or across a process pool whose workers share artifacts
through one on-disk :class:`~repro.pipeline.disk.DiskStageCache`.

Determinism: cells are reported in grid order, every stage is pure,
and the raster kernel is bit-identical to the scalar path - so a
pooled sweep produces exactly the artifacts of an inline one, and of
:meth:`~repro.pipeline.chain.ProcessChain.run` on each cell, which
:func:`outcome_fingerprint` makes checkable as a single content hash
per cell.

Fault tolerance: a sweep is only as strong as its weakest cell unless
failures are *isolated*.  Here:

* every node runs under a :class:`~repro.pipeline.resilience.RetryPolicy`
  (transient failures retried with backoff) and an optional wall-clock
  budget (:func:`~repro.pipeline.resilience.time_limit`);
* a cell that still fails becomes a structured :class:`SweepCellError`
  in :attr:`SweepReport.errors` instead of aborting the run
  (``keep_going=False`` restores abort-on-first-failure, as
  :class:`SweepAborted`); a failed *shared* node charges the first
  pending consumer cell and re-runs for the survivors;
* a worker death (:class:`~concurrent.futures.process.BrokenProcessPool`)
  triggers a bounded number of pool rebuilds with resubmission of the
  lost nodes, then graceful degradation to serial execution;
* every finished cell's verdict is persisted in the disk cache's
  finalize memo as it lands, so a crashed sweep can ``resume`` over its
  cache directory: the fleet cuts every finished cell off at admission
  and never even *plans* its nodes.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Callable, Optional, Sequence

from repro import observability as obs
from repro.cad.resolution import StlResolution
from repro.pipeline.chain import ProcessChain
from repro.pipeline.disk import DiskStageCache
from repro.pipeline.fleet import MAX_POOL_REBUILDS, FleetJob, FleetScheduler
from repro.pipeline.report import (
    SweepAborted,
    SweepCellError,
    SweepCellResult,
    SweepReport,
    TransportStats,
    cell_error_from_exception,
    outcome_fingerprint,
)
from repro.pipeline.resilience import (
    NO_RETRY,
    PipelineConfigError,
    RetryPolicy,
)
from repro.pipeline.scheduler import ChainConfig, WorkerPool
from repro.printer.orientation import PrintOrientation

__all__ = [
    "MAX_POOL_REBUILDS",
    "ParallelSweep",
    "SweepAborted",
    "SweepCellError",
    "SweepCellResult",
    "SweepReport",
    "TransportStats",
    "WorkerPool",
    "cell_error_from_exception",
    "outcome_fingerprint",
]


class ParallelSweep:
    """Grid sweep executor: inline in-process, or fanned out to workers.

    Parameters
    ----------
    chain:
        The :class:`~repro.pipeline.ProcessChain` whose configuration
        (machine, settings, raster cell, plate margin) every cell runs
        with; a default chain when omitted.
    jobs:
        Worker process count; ``1`` (default) runs the merged node set
        inline in this process.
    cache_dir:
        Directory for the shared :class:`DiskStageCache`, which is then
        the cache the sweep runs on.  When omitted, a pooled sweep
        (``jobs > 1``) uses a throwaway temporary directory for the
        duration of the run, and an inline sweep runs on
        ``chain.cache`` - so repeated sweeps on one chain share its
        artifacts and finalize memo.
    retry:
        :class:`RetryPolicy` applied to every scheduled node.  The
        default never retries; pass e.g.
        ``RetryPolicy(max_attempts=3, backoff_s=0.1)`` to absorb
        transient I/O failures.
    cell_timeout_s:
        Per-node wall-clock budget; a node over budget fails its cell
        with :class:`~repro.pipeline.resilience.CellTimeout` (best
        effort - see :func:`~repro.pipeline.resilience.time_limit`).
    keep_going:
        ``True`` (default): failed cells become
        :attr:`SweepReport.errors` and the sweep completes.  ``False``:
        the first exhausted cell raises :class:`SweepAborted`.
    resume:
        Cut off every cell whose verdict an earlier run persisted in
        ``cache_dir`` (required): such cells are served from the
        verified finalize memo instead of recomputed, and their nodes
        are never planned into the fleet.
    pool:
        An external :class:`~repro.pipeline.scheduler.WorkerPool` to
        lease workers from instead of spawning a throwaway pool per
        run.  Long-lived callers (the job service) share one pool
        across sweeps so repeat runs hit *warm* workers; the pool is
        left alive on completion and its owner shuts it down.
    """

    def __init__(
        self,
        chain: Optional[ProcessChain] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
        resume: bool = False,
        pool: Optional[WorkerPool] = None,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise PipelineConfigError("cell_timeout_s must be positive or None")
        if resume and cache_dir is None:
            raise PipelineConfigError("resume requires a cache_dir")
        self.chain = chain if chain is not None else ProcessChain()
        self.config = ChainConfig.of(self.chain)
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry = retry if retry is not None else NO_RETRY
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.resume = resume
        self.pool = pool

    def run(
        self,
        model,
        resolutions: Sequence[StlResolution],
        orientations: Sequence[PrintOrientation],
        assess: Optional[Callable[[Any], Any]] = None,
    ) -> SweepReport:
        """Run every (resolution x orientation) cell; results in grid order.

        ``assess`` (a picklable callable, e.g.
        :func:`repro.obfuscade.quality.assess_print`) is applied to each
        cell's :class:`~repro.printer.job.PrintOutcome` where it runs,
        so only its - typically small - result crosses the process
        boundary, not the voxel grids.
        """
        grid = [(r, o) for r in resolutions for o in orientations]
        if not grid:
            return SweepReport(jobs=self.jobs)
        start = time.perf_counter()
        with obs.span(
            "sweep.run", jobs=self.jobs, grid=len(grid), resume=self.resume
        ):
            report = self._execute(model, grid, assess)
            report.wall_s = time.perf_counter() - start
            obs.annotate(
                cells_ok=len(report.cells),
                cells_failed=len(report.errors),
                pool_rebuilds=report.pool_rebuilds,
                degraded_to_serial=report.degraded_to_serial,
                wall_s=report.wall_s,
            )
        if report.errors and not self.keep_going:
            raise SweepAborted(report.errors[0])
        return report

    # -- execution -----------------------------------------------------------

    def _execute(self, model, grid, assess) -> SweepReport:
        """Run the grid as one fleet job on the sweep's cache."""
        tmp = None
        if self.cache_dir is not None:
            cache = DiskStageCache(self.cache_dir)
        elif self.jobs > 1:
            tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
            cache = DiskStageCache(tmp.name)
        else:
            cache = self.chain.cache
        fleet = FleetScheduler(
            cache,
            jobs=self.jobs,
            retry=self.retry,
            cell_timeout_s=self.cell_timeout_s,
            keep_going=self.keep_going,
            pool=self.pool,
        )
        try:
            job = fleet.admit(FleetJob(
                "sweep", model, grid, self.config,
                assess=assess,
                resume=self.resume,
            ))
            counters = job.counters
            with obs.span(
                "graph.run",
                jobs=self.jobs,
                cells=len(grid),
                nodes=counters.total_scheduled,
            ):
                fleet.run_until_idle()
                obs.annotate(
                    scheduled=counters.total_scheduled,
                    deduped=counters.total_deduped,
                    executed=counters.total_executed,
                )
        finally:
            fleet.shutdown()
            if tmp is not None:
                tmp.cleanup()
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.adopt(job.spans)
        return job.report
