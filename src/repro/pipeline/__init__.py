"""Staged process-chain engine with content-addressed stage caching.

The substrate behind :class:`~repro.printer.job.PrintJob`, the
counterfeiter grid search and the ``sweep`` CLI: the paper's Fig. 1
chain decomposed into pure, individually cached stages, declared as a
typed :class:`StageGraph` (artifact contracts, explicit dependencies)
and executed - for sweeps - by the one :class:`FleetScheduler`, which
merges every grid cell of every admitted job into one
``(stage, content digest)`` node set so shared upstream nodes run
exactly once.  A :class:`ParallelSweep` is a fleet of one job.

Note the name collision with :class:`repro.supplychain.chain.ProcessChain`
(the Fig. 1 *risk ledger* walkthrough): that class narrates the chain
for the security analysis; this package *executes* it.  Import this one
as ``from repro.pipeline import ProcessChain``.
"""

from repro.pipeline.cache import (
    CacheStats,
    StageCache,
    StageStats,
    digest_parts,
    stats_delta,
)
from repro.pipeline.chain import ChainArtifacts, ChainContext, ProcessChain
from repro.pipeline.disk import ROOTS_STAGE, DiskStageCache
from repro.pipeline.fleet import FleetJob, FleetScheduler
from repro.pipeline.graph import SchedulerStats, StageGraph, StageGraphError
from repro.pipeline.journal import SweepJournal
from repro.pipeline.parallel import (
    ParallelSweep,
    SweepAborted,
    SweepCellError,
    SweepCellResult,
    SweepReport,
    TransportStats,
    cell_error_from_exception,
    outcome_fingerprint,
)
from repro.pipeline.report import finalize_key
from repro.pipeline.resilience import (
    NO_RETRY,
    TRANSIENT_ERRORS,
    CacheIntegrityError,
    CellTimeout,
    MeshValidationError,
    PipelineConfigError,
    PipelineError,
    RetryPolicy,
    StageError,
    time_limit,
)
from repro.pipeline.scheduler import ChainConfig, WorkerPool
from repro.pipeline.stage import ArtifactContract, Stage, StageExecution

__all__ = [
    "ArtifactContract",
    "CacheIntegrityError",
    "CacheStats",
    "CellTimeout",
    "ChainArtifacts",
    "ChainConfig",
    "ChainContext",
    "DiskStageCache",
    "FleetJob",
    "FleetScheduler",
    "MeshValidationError",
    "NO_RETRY",
    "ParallelSweep",
    "PipelineConfigError",
    "PipelineError",
    "ProcessChain",
    "ROOTS_STAGE",
    "RetryPolicy",
    "SchedulerStats",
    "Stage",
    "StageCache",
    "StageError",
    "StageExecution",
    "StageGraph",
    "StageGraphError",
    "StageStats",
    "SweepAborted",
    "SweepCellError",
    "SweepCellResult",
    "SweepJournal",
    "SweepReport",
    "TRANSIENT_ERRORS",
    "TransportStats",
    "WorkerPool",
    "cell_error_from_exception",
    "digest_parts",
    "finalize_key",
    "outcome_fingerprint",
    "stats_delta",
    "time_limit",
]
