"""Counterfeiter model: printing a stolen, obfuscated file blindly.

The threat model of the paper: an adversary exfiltrates the CAD/STL file
(IP theft) but not the manufacturing key.  The simulator enumerates the
process-condition space the attacker would realistically search and
grades every attempt, quantifying how well the obfuscation resists a
settings grid search.

The grid search runs on the staged process-chain engine
(:mod:`repro.pipeline`) with one shared stage cache, so work that is
invariant across the grid is done once: tessellation and coincident-face
resolution depend only on the resolution, not the orientation, so a
3 resolutions x 3 orientations search performs 3 tessellations, not 9.

Resilience (ISSUE 3): a grid search is a long-running batch job, and a
single degenerate cell must not void the other N-1 attempts.  All the
sweep executor's recovery machinery - per-cell retry with backoff,
wall-clock budgets, worker-death resubmission, checkpoint/resume - is
exposed here, and failed cells surface as structured entries in
:attr:`AttackResult.failed` rather than as an aborted search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cad.resolution import COARSE, FINE, StlResolution, custom_resolution
from repro.obfuscade.obfuscator import ProtectedModel
from repro.obfuscade.quality import QualityGrade, QualityReport, assess_print
from repro.pipeline.cache import CacheStats, stats_delta
from repro.pipeline.chain import ProcessChain
from repro.pipeline.parallel import (
    ParallelSweep,
    SweepAborted,
    SweepCellError,
    SweepReport,
    execute_cell,
)
from repro.pipeline.resilience import (
    NO_RETRY,
    PipelineConfigError,
    RetryPolicy,
)
from repro.printer.job import PrintJob
from repro.printer.orientation import PrintOrientation


@dataclass(frozen=True)
class AttackAttempt:
    """One counterfeit print attempt and its graded quality."""

    resolution: str
    orientation: str
    report: QualityReport
    matches_key: bool


@dataclass
class AttackResult:
    """Outcome of a full settings grid search."""

    attempts: List[AttackAttempt] = field(default_factory=list)
    #: Per-stage cache counters of the search (hits, misses, timings),
    #: captured over exactly this grid search.
    cache_stats: Optional[CacheStats] = None
    #: Grid cells that exhausted their recovery budget; the attempts
    #: above cover the rest of the grid.
    failed: List[SweepCellError] = field(default_factory=list)
    #: The underlying sweep report (cells with fingerprints, merged
    #: stats, wall time) - the substrate for per-run manifests
    #: (:func:`repro.observability.manifest.sweep_manifest`).
    report: Optional[SweepReport] = None

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    @property
    def successful(self) -> List[AttackAttempt]:
        """Attempts that produced a genuine-grade counterfeit."""
        return [a for a in self.attempts if a.report.grade is QualityGrade.GENUINE]

    @property
    def success_rate(self) -> float:
        return len(self.successful) / self.n_attempts if self.attempts else 0.0

    @property
    def best_quality(self) -> float:
        return max((a.report.score for a in self.attempts), default=0.0)

    @property
    def key_only_success(self) -> bool:
        """True when every genuine-grade attempt used the secret key -
        the paper's headline property."""
        return all(a.matches_key for a in self.successful)

    def summary_rows(self) -> List[Tuple[str, str, str, float, bool]]:
        return [
            (a.resolution, a.orientation, a.report.grade.value, a.report.score, a.matches_key)
            for a in self.attempts
        ]


class CounterfeiterSimulator:
    """Grid-searches process settings against a stolen protected model.

    Parameters
    ----------
    job:
        Legacy entry point: an existing :class:`PrintJob` whose chain
        (machine, settings, cache) the search should use.
    resolutions / orientations:
        The settings grid; defaults to the paper's three resolutions
        and two orientations.
    chain:
        The staged engine to run on.  Defaults to ``job``'s chain (or a
        fresh one), so all grid cells share one stage cache.
    jobs:
        Worker process count.  ``1`` (default) searches serially on
        ``chain``; ``> 1`` fans the grid cells out through a
        :class:`~repro.pipeline.ParallelSweep` whose workers share
        stage artifacts via an on-disk cache.  Results are identical
        either way (the engine is deterministic and the raster kernel
        bit-exact); only the wall-clock changes.
    cache_dir:
        Shared disk-cache directory for parallel searches; a temporary
        directory is used when omitted.
    retry / cell_timeout_s / keep_going:
        Per-cell resilience, as for :class:`ParallelSweep`:
        transient-failure retry policy, wall-clock budget, and whether
        a cell that exhausts both becomes an entry in
        :attr:`AttackResult.failed` (``True``, default) or aborts the
        search (``False``, raising
        :class:`~repro.pipeline.parallel.SweepAborted`).
    journal_path / resume:
        Checkpoint file for crash-resumable searches; ``resume`` skips
        cells whose journal record is intact.  Searches with a journal
        always run through the sweep executor, whatever ``jobs`` is.
    """

    def __init__(
        self,
        job: Optional[PrintJob] = None,
        resolutions: Optional[Sequence[StlResolution]] = None,
        orientations: Optional[Sequence[PrintOrientation]] = None,
        chain: Optional[ProcessChain] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
        journal_path: Optional[str] = None,
        resume: bool = False,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        self.job = job or PrintJob()
        self.chain = chain if chain is not None else self.job.chain
        self.resolutions = list(resolutions or (COARSE, FINE, custom_resolution()))
        self.orientations = list(orientations or (PrintOrientation.XY, PrintOrientation.XZ))
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry = retry if retry is not None else NO_RETRY
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.journal_path = journal_path
        self.resume = resume

    def attack(self, protected: ProtectedModel) -> AttackResult:
        """Print the stolen model under every setting combination."""
        if self.jobs > 1 or self.journal_path is not None or self.resume:
            return self._attack_sweep(protected)
        return self._attack_serial(protected)

    def _attack_serial(self, protected: ProtectedModel) -> AttackResult:
        """The in-process search on the shared chain, cell-isolated."""
        start = time.perf_counter()
        before = self.chain.stats.snapshot()
        result = AttackResult()
        sweep_report = SweepReport(jobs=1)
        for resolution in self.resolutions:
            for orientation in self.orientations:
                cell, error = execute_cell(
                    self.chain, protected.model, resolution, orientation,
                    assess_print, True, self.retry, self.cell_timeout_s,
                )
                if error is not None:
                    if not self.keep_going:
                        raise SweepAborted(error)
                    result.failed.append(error)
                    sweep_report.errors.append(error)
                    continue
                sweep_report.cells.append(cell)
                result.attempts.append(
                    AttackAttempt(
                        resolution=resolution.name,
                        orientation=orientation.value,
                        report=cell.assessment,
                        matches_key=protected.key.matches(resolution, orientation),
                    )
                )
        result.cache_stats = stats_delta(before, self.chain.stats.snapshot())
        sweep_report.stats = result.cache_stats
        sweep_report.wall_s = time.perf_counter() - start
        result.report = sweep_report
        return result

    def _attack_sweep(self, protected: ProtectedModel) -> AttackResult:
        """The same grid search through the fault-tolerant sweep executor."""
        sweep = ParallelSweep(
            machine=self.chain.machine,
            settings=self.chain.base_settings,
            raster_cell_mm=self.chain.simulator.raster_cell_mm,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            plate_margin_mm=self.chain.plate_margin_mm,
            retry=self.retry,
            cell_timeout_s=self.cell_timeout_s,
            keep_going=self.keep_going,
            journal_path=self.journal_path,
            resume=self.resume,
        )
        report = sweep.run(
            protected.model, self.resolutions, self.orientations, assess=assess_print
        )
        result = AttackResult(
            cache_stats=report.stats, failed=list(report.errors), report=report
        )
        # Align by cell name, not position: failed cells leave holes in
        # the grid, so positional zipping would mislabel everything
        # after the first failure.
        grid = {
            (r.name, o.value): (r, o)
            for r in self.resolutions
            for o in self.orientations
        }
        for cell in report.cells:
            resolution, orientation = grid[(cell.resolution, cell.orientation)]
            result.attempts.append(
                AttackAttempt(
                    resolution=cell.resolution,
                    orientation=cell.orientation,
                    report=cell.assessment,
                    matches_key=protected.key.matches(resolution, orientation),
                )
            )
        return result
