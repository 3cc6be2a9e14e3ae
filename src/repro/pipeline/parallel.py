"""Process-parallel settings sweeps over the staged chain.

A settings grid search - the defender's key search and the
counterfeiter's brute force alike - is embarrassingly parallel across
grid cells, but the cells share work: tessellation and coincident-face
resolution depend only on the resolution, not the orientation.
:class:`ParallelSweep` is the sweep facade: it expands the grid, keys
and journals the cells, and runs the cells it must compute as a fleet
of one job on a private :class:`~repro.pipeline.fleet.FleetScheduler`.
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
* completed cells are checkpointed to a
  :class:`~repro.pipeline.journal.SweepJournal` as they finish, so a
  crashed sweep can ``resume`` without recomputing finished cells - and
  the fleet never even *plans* a replayed cell's nodes.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import observability as obs
from repro.cad.resolution import StlResolution
from repro.mesh.content_hash import model_digest
from repro.pipeline.cache import digest_parts
from repro.pipeline.chain import (
    ProcessChain,
    _machine_key,
    _resolution_key,
    _settings_key,
)
from repro.pipeline.disk import DiskStageCache
from repro.pipeline.fleet import FleetJob, FleetScheduler
from repro.pipeline.graph import SchedulerStats
from repro.pipeline.journal import SweepJournal
from repro.pipeline.report import (
    SweepAborted,
    SweepCellError,
    SweepCellResult,
    SweepReport,
    TransportStats,
    assess_identity,
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

#: Pool rebuilds attempted after worker deaths before degrading to
#: serial execution of the remaining cells.
MAX_POOL_REBUILDS = 2

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
    journal_path:
        Checkpoint file; every completed cell is appended so a crashed
        sweep can be resumed.
    resume:
        Replay ``journal_path`` before running: cells with an intact
        journal record are served from it instead of recomputed (their
        nodes are never planned into the fleet).
    max_pool_rebuilds:
        Worker-pool rebuilds after :class:`BrokenProcessPool` before
        the remaining nodes degrade to serial in-process execution.
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
        journal_path: Optional[str] = None,
        resume: bool = False,
        max_pool_rebuilds: int = MAX_POOL_REBUILDS,
        pool: Optional[WorkerPool] = None,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise PipelineConfigError("cell_timeout_s must be positive or None")
        if max_pool_rebuilds < 0:
            raise PipelineConfigError("max_pool_rebuilds must be >= 0")
        if resume and journal_path is None:
            raise PipelineConfigError("resume requires a journal_path")
        self.chain = chain if chain is not None else ProcessChain()
        self.config = ChainConfig.of(self.chain)
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry = retry if retry is not None else NO_RETRY
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.journal_path = journal_path
        self.resume = resume
        self.max_pool_rebuilds = max_pool_rebuilds
        self.pool = pool

    def run(
        self,
        model,
        resolutions: Sequence[StlResolution],
        orientations: Sequence[PrintOrientation],
        assess: Optional[Callable[[Any], Any]] = None,
        analyze_seam: bool = True,
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
        journal = (
            SweepJournal(self.journal_path) if self.journal_path else None
        )
        with obs.span(
            "sweep.run", jobs=self.jobs, grid=len(grid), resume=self.resume
        ):
            keys = [
                self._cell_key(model, r, o, assess, analyze_seam)
                for r, o in grid
            ]
            replayed = self._replay(journal, keys) if self.resume else {}
            report = self._execute(
                model, grid, keys, replayed, assess, analyze_seam, journal
            )
            report.wall_s = time.perf_counter() - start
            if journal is not None and self.resume:
                report.journal_rejected = journal.rejected_lines
                report.journal_dropped = journal.dropped_lines
            obs.annotate(
                cells_ok=len(report.cells),
                cells_failed=len(report.errors),
                resumed=report.resumed,
                pool_rebuilds=report.pool_rebuilds,
                degraded_to_serial=report.degraded_to_serial,
                journal_rejected=report.journal_rejected,
                wall_s=report.wall_s,
            )
        if report.errors and not self.keep_going:
            raise SweepAborted(report.errors[0])
        return report

    # -- execution -----------------------------------------------------------

    def _execute(
        self, model, grid, keys, replayed, assess, analyze_seam, journal
    ) -> SweepReport:
        """Run every non-replayed cell as one fleet job; journal each
        cell as it finishes; merge with the replayed cells."""
        todo = [i for i in range(len(grid)) if i not in replayed]
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
            max_pool_rebuilds=self.max_pool_rebuilds,
            pool=self.pool,
        )
        job = None
        try:
            if todo:
                job = fleet.admit(FleetJob(
                    "sweep", model, [grid[i] for i in todo], self.config,
                    assess=assess,
                    analyze_seam=analyze_seam,
                ))
            counters = job.counters if job else SchedulerStats()
            with obs.span(
                "graph.run",
                jobs=self.jobs,
                cells=len(todo),
                nodes=counters.total_scheduled,
            ):
                journaled: set = set()
                while fleet.has_work():
                    fleet.step()
                    if journal is None:
                        continue
                    for j, cell in list(job.results.items()):
                        if j not in journaled and keys[todo[j]] is not None:
                            journal.append(keys[todo[j]], cell)
                            journaled.add(j)
                obs.annotate(
                    scheduled=counters.total_scheduled,
                    deduped=counters.total_deduped,
                    executed=counters.total_executed,
                )
        finally:
            fleet.shutdown()
            if tmp is not None:
                tmp.cleanup()
        results = dict(replayed)
        if job is None:
            report = SweepReport(
                jobs=self.jobs,
                scheduler=counters,
                transport=TransportStats() if self.jobs > 1 else None,
            )
        else:
            report = job.report
            results.update((todo[j], c) for j, c in job.results.items())
            tracer = obs.get_tracer()
            if tracer is not None:
                tracer.adopt(job.spans)
        report.cells = [results[i] for i in sorted(results)]
        report.resumed = len(replayed)
        return report

    # -- journal -------------------------------------------------------------

    def _cell_key(
        self, model, resolution, orientation, assess, analyze_seam
    ) -> Optional[str]:
        """Content address of one cell: everything that determines it.

        ``None`` when ``assess`` has no stable identity
        (:func:`~repro.pipeline.report.assess_identity`): such a cell
        is neither replayed from nor appended to the journal.
        """
        assess_key = assess_identity(assess)
        if assess is not None and assess_key is None:
            return None
        return digest_parts(
            "sweep-cell",
            model_digest(model),
            _resolution_key(resolution),
            orientation.value,
            _machine_key(self.config.machine),
            _settings_key(self.config.settings),
            self.config.raster_cell_mm,
            self.config.plate_margin_mm,
            analyze_seam,
            assess_key,
        )

    def _replay(
        self, journal: Optional[SweepJournal], keys: List[str]
    ) -> Dict[int, SweepCellResult]:
        """Cells served straight from the journal, by grid index."""
        if journal is None:
            return {}
        entries = journal.load()
        replayed: Dict[int, SweepCellResult] = {}
        for index, key in enumerate(keys):
            stored = None if key is None else entries.get(key)
            if isinstance(stored, SweepCellResult):
                replayed[index] = SweepCellResult(
                    resolution=stored.resolution,
                    orientation=stored.orientation,
                    fingerprint=stored.fingerprint,
                    assessment=stored.assessment,
                    stage_log=stored.stage_log,
                    attempts=stored.attempts,
                    resumed=True,
                )
                # A trace must witness every cell of the run, replayed
                # ones included - resumed cells otherwise vanish from
                # the audit trail.
                with obs.span(
                    "sweep.cell",
                    cell=f"{stored.resolution}/{stored.orientation}",
                    resolution=stored.resolution,
                    orientation=stored.orientation,
                ):
                    obs.annotate(
                        outcome="resumed",
                        resumed=True,
                        attempts=stored.attempts,
                        fingerprint=stored.fingerprint,
                    )
        return replayed
