"""Counterfeiter model: printing a stolen, obfuscated file blindly.

The threat model of the paper: an adversary exfiltrates the CAD/STL file
(IP theft) but not the manufacturing key.  The simulator enumerates the
process-condition space the attacker would realistically search and
grades every attempt, quantifying how well the obfuscation resists a
settings grid search.

The grid search runs as one fleet job of the staged process-chain
engine (:mod:`repro.pipeline`), so work that is invariant across the
grid is scheduled once: tessellation and coincident-face resolution
depend only on the resolution, not the orientation, so a 3 resolutions
x 3 orientations search performs 3 tessellations, not 9.

Resilience (ISSUE 3): a grid search is a long-running batch job, and a
single degenerate cell must not void the other N-1 attempts.  All the
sweep executor's recovery machinery - per-cell retry with backoff,
wall-clock budgets, worker-death resubmission, checkpoint/resume - is
exposed here, and failed cells surface as structured entries in
:attr:`AttackResult.failed` rather than as an aborted search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cad.resolution import COARSE, FINE, StlResolution, custom_resolution
from repro.obfuscade.obfuscator import ProtectedModel
from repro.obfuscade.quality import QualityGrade, QualityReport, assess_print
from repro.pipeline.cache import CacheStats
from repro.pipeline.chain import ProcessChain
from repro.pipeline.parallel import ParallelSweep, SweepCellError, SweepReport
from repro.pipeline.resilience import (
    NO_RETRY,
    PipelineConfigError,
    RetryPolicy,
)
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

    The search is one :class:`~repro.pipeline.ParallelSweep` run, a
    fleet of one job, whatever ``jobs`` is.

    Parameters
    ----------
    resolutions / orientations:
        The settings grid; defaults to the paper's three resolutions
        and two orientations.
    chain:
        The staged engine whose configuration (machine, settings,
        raster cell) the search uses; a fresh one when omitted.  An
        inline search (``jobs=1``, no ``cache_dir``) runs on
        ``chain.cache``, so repeated searches on one chain reuse its
        artifacts and cut finished cells off at admission.
    jobs:
        Worker process count.  ``1`` (default) runs the grid's node
        set inline; ``> 1`` fans the nodes out to a worker pool that
        shares stage artifacts via an on-disk cache.  Results are
        identical either way (the engine is deterministic and the
        raster kernel bit-exact); only the wall-clock changes.
    cache_dir:
        Disk-cache directory the search runs on, whatever ``jobs`` is;
        a pooled search without one uses a temporary directory.
    retry / cell_timeout_s / keep_going:
        Resilience, as for :class:`ParallelSweep`.  ``retry`` and
        ``cell_timeout_s`` apply per node (each stage execution and
        each cell finalize), not per whole cell; ``keep_going`` decides
        whether a cell that exhausts them becomes an entry in
        :attr:`AttackResult.failed` (``True``, default) or aborts the
        search (``False``, raising
        :class:`~repro.pipeline.parallel.SweepAborted`).
    resume:
        Crash recovery: cut off every cell whose verdict an earlier
        search persisted in ``cache_dir`` (required), as for
        :class:`ParallelSweep`.
    """

    def __init__(
        self,
        resolutions: Optional[Sequence[StlResolution]] = None,
        orientations: Optional[Sequence[PrintOrientation]] = None,
        chain: Optional[ProcessChain] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
        resume: bool = False,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        self.chain = chain if chain is not None else ProcessChain()
        self.resolutions = list(resolutions or (COARSE, FINE, custom_resolution()))
        self.orientations = list(orientations or (PrintOrientation.XY, PrintOrientation.XZ))
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry = retry if retry is not None else NO_RETRY
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.resume = resume

    def attack(self, protected: ProtectedModel) -> AttackResult:
        """Print the stolen model under every setting combination."""
        sweep = ParallelSweep(
            chain=self.chain,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            retry=self.retry,
            cell_timeout_s=self.cell_timeout_s,
            keep_going=self.keep_going,
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
