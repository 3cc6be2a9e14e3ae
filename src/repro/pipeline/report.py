"""Sweep result types: cells, errors, reports, outcome fingerprints.

They live apart from :mod:`repro.pipeline.parallel` so the sweep facade
(:class:`~repro.pipeline.parallel.ParallelSweep`), the fleet scheduler
(:class:`~repro.pipeline.fleet.FleetScheduler`) and the task executors
(:mod:`repro.pipeline.scheduler`) can share them without an import
cycle.  ``repro.pipeline.parallel`` re-exports everything, so existing
imports keep working.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from repro.pipeline.cache import CacheStats, digest_parts
from repro.pipeline.graph import SchedulerStats
from repro.pipeline.resilience import (
    NO_RETRY,
    PipelineError,
    RetryPolicy,
    StageError,
)
from repro.printer.artifact import GRID_NAMES


def outcome_fingerprint(outcome) -> str:
    """Stable content hash of everything a chain run produced.

    Covers the deposited voxel grids (model, support, weak, voids), the
    G-code text and the firmware counters - enough that two runs with
    equal fingerprints produced the same physical print.  Arrays are
    hashed as canonical little-endian buffers (shape included), like
    :func:`repro.mesh.content_hash.mesh_digest`: each grid as its
    unpacked ``<u1`` bytes, streamed slab by slab from the packed rows
    so the full grid is never materialized.
    """
    h = hashlib.sha256()
    artifact = outcome.artifact
    shape = np.array(artifact.shape, dtype="<i8").tobytes()
    for name in GRID_NAMES:
        h.update(shape)
        for slab in artifact.grid_slabs(name):
            h.update(slab.view(np.uint8))
    h.update(np.asarray(
        [artifact.cell_mm, artifact.layer_height_mm], dtype="<f8"
    ).tobytes())
    h.update("\n".join(outcome.gcode.lines).encode())
    h.update(np.asarray(
        [outcome.firmware.executed_moves, outcome.firmware.total_extrusion_e],
        dtype="<f8",
    ).tobytes())
    return h.hexdigest()


def assess_identity(assess) -> Optional[str]:
    """Stable identity string of an assess callable (cache-key grade).

    ``module.qualname`` names a module-level function or method for as
    long as the code is unchanged.  A lambda or a closure (a qualname
    with ``<lambda>`` or ``<locals>`` in it) does not: two closures
    from one factory share a qualname but can judge differently.  Such
    a callable, or one without ``__module__``/``__qualname__`` (e.g. a
    :func:`functools.partial`), has no stable identity and yields
    ``None`` - as does ``assess=None``, which needs no identity.
    """
    if assess is None:
        return None
    module = getattr(assess, "__module__", None)
    qualname = getattr(assess, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    return f"{module}.{qualname}"


def finalize_key(stage_digests: Iterable[str], assess) -> Optional[str]:
    """Content address of a cell's *derived* products.

    A cell's outcome fingerprint and assessment are pure functions of
    its outcome-stage artifacts - which the digests already address -
    and of the assess callable's identity.  Keyed this way they can be
    memoized on the cache (:meth:`StageCache.derived_get`) and skipped
    entirely on a fully-warm re-run, without touching the stage
    hit/miss ledger.  ``None`` when ``assess`` has no stable identity
    (:func:`assess_identity`): such a verdict must never be memoized,
    and every memo user skips the memo on ``None``.
    """
    identity = assess_identity(assess)
    if assess is not None and identity is None:
        return None
    return digest_parts("finalize", tuple(stage_digests), identity)


@dataclass
class TransportStats:
    """Bytes crossing the worker task pipe (handle-passing accounting).

    The zero-copy data plane's pipe-side ledger: with handle-passing,
    task payloads carry a model *digest* instead of the model and
    results carry digests + counters instead of artifacts, so
    ``max_task_bytes`` stays small no matter how large the voxel grids
    get.  ``handle_tasks`` / ``inline_tasks`` split tasks by whether
    the shared model travelled as a cache handle or fell back to an
    inline payload (e.g. the root store failed).
    """

    tasks: int = 0
    payload_bytes: int = 0
    result_bytes: int = 0
    max_task_bytes: int = 0
    handle_tasks: int = 0
    inline_tasks: int = 0

    def record(
        self, payload_bytes: int, result_bytes: int, handle: bool
    ) -> None:
        self.tasks += 1
        self.payload_bytes += payload_bytes
        self.result_bytes += result_bytes
        self.max_task_bytes = max(
            self.max_task_bytes, payload_bytes, result_bytes
        )
        if handle:
            self.handle_tasks += 1
        else:
            self.inline_tasks += 1

    def to_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "payload_bytes": self.payload_bytes,
            "result_bytes": self.result_bytes,
            "max_task_bytes": self.max_task_bytes,
            "handle_tasks": self.handle_tasks,
            "inline_tasks": self.inline_tasks,
        }

    def render(self) -> List[str]:
        if not self.tasks:
            return []
        return [
            f"transport: {self.tasks} tasks, "
            f"{self.payload_bytes} B sent, {self.result_bytes} B returned, "
            f"max task {self.max_task_bytes} B "
            f"({self.handle_tasks} handle / {self.inline_tasks} inline)"
        ]


@dataclass(frozen=True)
class SweepCellResult:
    """One grid cell's outcome, reduced to what crosses processes."""

    resolution: str
    orientation: str
    #: Content hash of the produced artifacts (`outcome_fingerprint`).
    fingerprint: str
    #: Result of the ``assess`` callable, when one was given.
    assessment: Any
    #: Per-stage execution records of the run that served this cell.
    stage_log: Tuple = ()
    #: Attempts the retry policy spent on this cell (1 = first try).
    attempts: int = 1


@dataclass(frozen=True)
class SweepCellError:
    """One grid cell's failure, structured for reports and logs."""

    resolution: str
    orientation: str
    #: Exception class name (``StageError``, ``CellTimeout``, ...).
    error_type: str
    message: str
    #: Failing chain stage, when the failure localises to one.
    stage: Optional[str] = None
    #: Attempts spent before giving up.
    attempts: int = 1
    #: Whether the final failure was of a transient class (i.e. a
    #: bigger retry budget might have saved the cell).
    transient: bool = False


class SweepAborted(PipelineError):
    """A ``keep_going=False`` sweep stopped at its first failed cell."""

    def __init__(self, error: SweepCellError):
        self.error = error
        super().__init__(
            f"sweep aborted at cell {error.resolution}/{error.orientation}: "
            f"[{error.error_type}] {error.message}"
        )


@dataclass
class SweepReport:
    """A whole sweep: per-cell results plus merged cache statistics."""

    cells: List[SweepCellResult] = field(default_factory=list)
    #: Structured failures of cells that exhausted their recovery
    #: budget; the sweep completed around them.
    errors: List[SweepCellError] = field(default_factory=list)
    stats: CacheStats = field(default_factory=CacheStats)
    jobs: int = 1
    wall_s: float = 0.0
    #: Process pools rebuilt after worker deaths.
    pool_rebuilds: int = 0
    #: True when pool rebuilds were exhausted and the remaining cells
    #: ran serially in-process.
    degraded_to_serial: bool = False
    #: Node-scheduling counters of the fleet scheduler
    #: (requested/scheduled/deduped/executed per stage).
    #: ``None`` for reports produced outside the sweep executor.
    scheduler: Optional[SchedulerStats] = None
    #: Worker-pipe byte accounting (parallel runs only; ``None`` for
    #: serial runs, which have no pipe).
    transport: Optional[TransportStats] = None

    @property
    def failed_cells(self) -> List[Tuple[str, str]]:
        """(resolution, orientation) names of the cells that failed."""
        return [(e.resolution, e.orientation) for e in self.errors]

    @property
    def ok(self) -> bool:
        return not self.errors


def cell_error_from_exception(
    resolution: str,
    orientation: str,
    exc: BaseException,
    retry: RetryPolicy = NO_RETRY,
) -> SweepCellError:
    """Reduce an exception to the structured form a report carries."""
    return SweepCellError(
        resolution=resolution,
        orientation=orientation,
        error_type=type(exc).__name__,
        message=str(exc),
        stage=exc.stage if isinstance(exc, StageError) else None,
        attempts=getattr(exc, "attempts", 1),
        transient=retry.is_transient(exc),
    )
