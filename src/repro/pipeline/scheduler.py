"""Node execution for the fleet scheduler: executors, worker entry, pool.

Every sweep runs on :class:`~repro.pipeline.fleet.FleetScheduler` (a
:class:`~repro.pipeline.parallel.ParallelSweep` is a fleet of one job).
This module holds what the fleet executes, wherever a task runs -
inline in the dispatching process or in a pool worker:

* :func:`execute_node` / :func:`execute_finalize` run one graph node or
  one cell finalize through the single node-execution boundary
  (:func:`repro.pipeline.graph.run_stage`);
* :func:`run_task` unpacks one task payload and runs it on a given
  cache, shipping back ``(result, error, stats_delta, spans)``;
  :func:`_run_node_task` is the pool-worker entry around it;
* :class:`WorkerPool` is the long-lived, rebuildable process pool.

A finalize always materializes and judges its cell: the finalize memo
is the fleet's alone (:mod:`repro.pipeline.fleet`), consulted at plan
time, so a cell it has already finalized is cut off before any task
ships.

Accounting invariants, relied on by the observability layer:

* every node execution performs exactly one counted cache lookup (one
  ``cache.get`` span, one hit-or-miss), so per-stage totals equal the
  number of node executions in both serial and parallel runs;
* *input materialization* uses the uncounted
  :meth:`~repro.pipeline.cache.StageCache.fetch` API - an artifact
  being re-read as someone's input is not a stage execution.  Should a
  fetch miss (an upstream store failed), the input is recomputed
  through the boundary and therefore counted consistently on both
  ledgers.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro import observability as obs
from repro.pipeline.cache import CacheStats, stats_delta
from repro.pipeline.chain import ChainContext, ProcessChain
from repro.pipeline.disk import FINALIZE_STAGE, DiskStageCache
from repro.pipeline.graph import run_stage
from repro.pipeline.report import (
    cell_error_from_exception,
    outcome_fingerprint,
)
from repro.pipeline.resilience import PipelineError, RetryPolicy, time_limit

#: Stages whose artifacts assemble a cell's
#: :class:`~repro.printer.job.PrintOutcome`; transitively they cover
#: the whole per-cell subgraph, so a cell's finalize step depends on
#: exactly these nodes.
OUTCOME_STAGES = ("tessellate", "seam", "slice", "gcode", "firmware", "deposit")

#: Stages excluded from sweeps (``validate`` is opt-in, single-run only).
SWEEP_EXCLUDED = ("validate",)


@dataclass(frozen=True)
class ChainConfig:
    """Picklable chain configuration, rebuilt in every worker."""

    machine: Any
    settings: Any
    raster_cell_mm: Optional[float]
    plate_margin_mm: float

    @classmethod
    def of(cls, chain: ProcessChain) -> "ChainConfig":
        """The configuration ``chain`` runs with (its cache aside)."""
        return cls(
            machine=chain.machine,
            settings=chain.base_settings,
            raster_cell_mm=chain.simulator.raster_cell_mm,
            plate_margin_mm=chain.plate_margin_mm,
        )

    def build(self, cache) -> ProcessChain:
        return ProcessChain(
            machine=self.machine,
            settings=self.settings,
            raster_cell_mm=self.raster_cell_mm,
            cache=cache,
            plate_margin_mm=self.plate_margin_mm,
        )


@dataclass(frozen=True)
class NodeRecord:
    """What one node execution reports back to the scheduler."""

    stage: str
    digest: str
    cache_hit: bool
    seconds: float
    attempts: int = 1


class _Materializer:
    """Bring a node's upstream artifacts into its cell context.

    Normal path: an uncounted cache :meth:`fetch` (the artifact was
    produced by an already-completed node).  Fallback: recompute the
    missing input through the node-execution boundary - counted as a
    regular execution, which keeps span-derived and report statistics
    in exact agreement even when an upstream store failed.
    """

    def __init__(self, chain, cache, ctx, digests, cell):
        self.chain = chain
        self.cache = cache
        self.ctx = ctx
        self.digests = digests
        self.cell = cell
        self._have: set = set()

    def ensure(self, name: str) -> None:
        if name in self._have or name not in self.chain.by_name:
            return  # root artifacts (the model) live on the context
        stage = self.chain.by_name[name]
        digest = self.digests[name]
        value, found = self.cache.fetch(name, digest, unpack=stage.unpack)
        if not found:
            for dep in stage.inputs:
                self.ensure(dep)
            value, _, _ = run_stage(
                self.cache, stage, digest, self.ctx, self.cell
            )
        self.ctx.artifacts.set(name, value)
        self._have.add(name)


def execute_node(
    chain: ProcessChain,
    cache,
    stage_name: str,
    digest: str,
    ctx: ChainContext,
    digests: Dict[str, str],
    cell: str,
    retry: RetryPolicy,
    timeout_s: Optional[float],
) -> NodeRecord:
    """Run one graph node (materialize inputs, execute, record).

    Retry and the wall-clock budget wrap the whole attempt, inputs
    included; raises after the policy is exhausted.
    """
    stage = chain.by_name[stage_name]
    materializer = _Materializer(chain, cache, ctx, digests, cell)

    def attempt():
        with time_limit(timeout_s, what=f"cell {cell}"):
            for name in stage.inputs:
                materializer.ensure(name)
            return run_stage(cache, stage, digest, ctx, cell)

    (value, hit, seconds), attempts = retry.call(attempt)
    ctx.artifacts.set(stage_name, value)
    materializer._have.add(stage_name)
    return NodeRecord(stage_name, digest, hit, seconds, attempts)


def execute_finalize(
    chain: ProcessChain,
    cache,
    ctx: ChainContext,
    digests: Dict[str, str],
    cell: str,
    assess: Optional[Callable[[Any], Any]],
    retry: RetryPolicy,
    timeout_s: Optional[float],
    attempts_hint: int = 1,
) -> Tuple[str, Any, int]:
    """Assemble, fingerprint and assess one finished cell.

    The per-cell ``sweep.cell`` trace span is emitted here - finalize
    runs where the cell's verdict is produced (a worker in pooled
    mode, the parent inline).
    Deliberately unaccounted: assembling an outcome from cached
    artifacts is not a stage execution, so a warm sweep still reports
    zero misses.  The verdict is memoized by the fleet, which receives
    it, not here.  Returns ``(fingerprint, assessment, attempts)``;
    raises on failure.
    """
    def attempt():
        with time_limit(timeout_s, what=f"cell {cell}"):
            materializer = _Materializer(chain, cache, ctx, digests, cell)
            for name in OUTCOME_STAGES:
                materializer.ensure(name)
            outcome = ctx.outcome()
            fingerprint = outcome_fingerprint(outcome)
            assessment = assess(outcome) if assess is not None else None
            return fingerprint, assessment

    with obs.span(
        "sweep.cell",
        cell=cell,
        resolution=ctx.resolution.name,
        orientation=ctx.orientation.value,
    ):
        try:
            (fingerprint, assessment), attempts = retry.call(attempt)
        except Exception as exc:
            obs.annotate(
                outcome="error",
                error_type=type(exc).__name__,
                attempts=max(getattr(exc, "attempts", 1), attempts_hint),
            )
            raise
        attempts = max(attempts, attempts_hint)
        obs.annotate(
            outcome="ok", attempts=attempts, fingerprint=fingerprint
        )
    return fingerprint, assessment, attempts


# -- worker side --------------------------------------------------------------

#: One shared disk cache per cache directory, reused across the many
#: node tasks a worker process executes (the memory tier then serves
#: repeat input fetches without touching disk).
_WORKER_CACHES: Dict[str, DiskStageCache] = {}

#: Per-process memo of resolved root models, keyed by content digest -
#: a worker deserializes the shared model once, not once per task.
_MODEL_MEMO: Dict[str, Any] = {}


def _worker_cache(cache_dir: str) -> DiskStageCache:
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = DiskStageCache(cache_dir)
        _WORKER_CACHES[cache_dir] = cache
    return cache


def _resolve_model(model_ref: Tuple[str, Any], cache) -> Any:
    """Materialize the task's model from its transport reference.

    ``("inline", model)`` carries the model itself (the legacy
    payload-passing transport, kept as the fallback when the parent
    could not publish the root); ``("handle", digest)`` is resolved
    from the shared disk cache's root store, memoized per process.
    """
    kind, value = model_ref
    if kind == "inline":
        return value
    model = _MODEL_MEMO.get(value)
    if model is None:
        model = cache.get_root(value)
        if model is None:
            raise PipelineError(
                f"shared model root {value[:12]}... is missing from the "
                f"cache (store failed or entry was quarantined)"
            )
        _MODEL_MEMO[value] = model
    return model


def run_task(
    cache, payload, worker: bool = False
) -> Tuple[Any, Any, CacheStats, List[dict]]:
    """Execute one graph node (or cell finalize) on ``cache``.

    Ships back ``(result, error, stats_delta, spans)``; errors travel
    as structured :class:`~repro.pipeline.report.SweepCellError` rows
    (exceptions with custom constructors do not survive pickling), with
    the cell attribution left to the fleet for shared nodes.  The task
    always traces into a private tracer whose spans are shipped back,
    so the fleet can credit them to the attributed job.  ``worker``
    arms the ``worker`` fault site, which only a pool worker may fire.
    """
    (
        config,
        _cache_dir,
        stage_name,
        digest,
        resolution,
        orientation,
        model_ref,
        digests,
        retry,
        timeout_s,
        assess,
        attempts_hint,
    ) = payload
    cell = f"{resolution.name}/{orientation.value}"
    tracer = obs.install(obs.Tracer())
    result = None
    error = None
    try:
        chain = config.build(cache)
        before = cache.stats.snapshot()
        try:
            if worker:
                faults.fire("worker", context=cell)
            ctx = ChainContext(
                chain=chain,
                model=_resolve_model(model_ref, cache),
                resolution=resolution,
                orientation=orientation,
            )
            ctx.digests.update(digests)
            if stage_name == FINALIZE_STAGE:
                result = execute_finalize(
                    chain, cache, ctx, digests, cell, assess, retry,
                    timeout_s, attempts_hint,
                )
            else:
                result = execute_node(
                    chain, cache, stage_name, digest, ctx, digests, cell,
                    retry, timeout_s,
                )
        except Exception as exc:
            error = cell_error_from_exception(
                resolution.name, orientation.value, exc, retry
            )
        stats = stats_delta(before, cache.stats.snapshot())
    finally:
        obs.uninstall()
    return result, error, stats, [s.to_dict() for s in tracer.drain()]


def _run_node_task(payload) -> Tuple[Any, Any, CacheStats, List[dict]]:
    """Pool-worker entry: :func:`run_task` on this process's shared
    disk cache for the payload's cache directory."""
    return run_task(_worker_cache(payload[1]), payload, worker=True)


# -- the warm pool ------------------------------------------------------------


class WorkerPool:
    """A long-lived, rebuildable :class:`ProcessPoolExecutor` handle.

    A private pool per run pays worker spawn plus cold per-process
    memos (:data:`_WORKER_CACHES`, :data:`_MODEL_MEMO`) every time.  A
    ``WorkerPool`` outlives individual runs: the job service creates
    one for its fleet, and callers pass one to
    :class:`~repro.pipeline.parallel.ParallelSweep`, so back-to-back
    jobs land on *warm* workers whose caches and model memos are
    already populated.

    The handle is also the rebuild point after a
    :class:`BrokenProcessPool`: :meth:`rebuild` swaps in a replacement
    executor, so a worker death during one job never poisons the next.
    Thread-safe; the executor itself is created lazily (workers are
    spawned by the first submit).
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        #: Lifetime rebuild count, across every run served by this pool.
        self.rebuilds = 0
        #: Runs served (``get`` calls) - exposed for warm-pool metrics.
        self.leases = 0

    def get(self) -> ProcessPoolExecutor:
        """The current executor, created on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            self.leases += 1
            return self._pool

    def rebuild(self) -> ProcessPoolExecutor:
        """Replace a broken executor with a fresh one."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.rebuilds += 1
            return self._pool

    def shutdown(self, wait: bool = True) -> None:
        """Tear the executor down (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait, cancel_futures=True)
                self._pool = None
