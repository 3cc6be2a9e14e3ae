"""The one scheduler: many sweep jobs merged into one node set.

Every sweep runs here.  A :class:`~repro.pipeline.parallel.ParallelSweep`
is a fleet of one job; the job service admits many jobs from many
tenants into one long-lived fleet.  Jobs are *admitted incrementally*
into one fleet-wide node index keyed by ``(stage name, content
digest)``, so a node claimed by several cells - tessellate and resolve
depend only on the resolution, not the orientation - or by several
jobs, even jobs submitted while the fleet is already running, executes
exactly once, with its result fanned out to every consumer.

Per-job accounting is split out of shared-node execution:

* every task (a node execution or a cell finalize) is *attributed* to
  exactly one claiming job - the job whose stats delta, trace spans and
  ``executed`` counter record it.  Consuming jobs see the node in their
  stage logs as a free hit (``hit=True, 0.0s``) with no span and no
  stats contribution, so each job's trace and manifest stay in exact
  agreement (the ``check_run_artifacts.py`` invariant), and a job's
  outcome fingerprints are bit-identical to running it alone serially;
* a failed shared node charges the attributed claim's cell only
  (failure splitting), cancels that cell, and re-queues the node for
  the surviving claims - other cells and jobs never inherit a victim's
  error;
* cancelling a job releases its queued nodes *unless another job still
  claims them*: shared nodes survive, running nodes finish (their
  results re-attach to surviving claimants), and the fleet counts the
  released work as ``cancelled_nodes``.

Scheduling order respects job priorities (lower = more urgent),
deadlines and admission order: a ready node ranks by the most urgent
job claiming it, so an urgent job admitted late overtakes the backlog
of a patient one without starving it (shared nodes are executed once
for both anyway).

Tasks run through :func:`~repro.pipeline.scheduler.run_task` - inline
in the dispatching thread on one fleet-owned cache when ``jobs == 1``
(or after pool-rebuild exhaustion), or fanned out over a warm
:class:`~repro.pipeline.scheduler.WorkerPool` whose workers share
artifacts through one on-disk cache.  A worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) requeues the
lost tasks and rebuilds the pool a bounded number of times before the
fleet degrades to inline execution.
"""

from __future__ import annotations

import heapq
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import observability as obs
from repro.mesh.content_hash import model_digest
from repro.pipeline import shm as shm_tier
from repro.pipeline.cache import CacheStats, StageCache
from repro.pipeline.chain import ChainContext
from repro.pipeline.disk import DiskStageCache
from repro.pipeline.graph import SchedulerStats
from repro.pipeline.report import (
    SweepCellError,
    SweepCellResult,
    SweepReport,
    TransportStats,
)
from repro.pipeline.resilience import NO_RETRY, PipelineConfigError, RetryPolicy
from repro.pipeline.scheduler import (
    OUTCOME_STAGES,
    SWEEP_EXCLUDED,
    ChainConfig,
    NodeRecord,
    WorkerPool,
    _run_node_task,
    run_task,
)
from repro.pipeline.stage import StageExecution

#: Node lifecycle inside the fleet index.
PENDING = "pending"      # waiting on upstream nodes
READY = "ready"          # in the ready heap
RUNNING = "running"      # dispatched (inline or to a worker)
DONE = "done"            # executed; record available for fan-out
RELEASED = "released"    # dropped unexecuted (cancelled / failure split)

#: Default job priority (lower is more urgent; 0..9 by convention).
DEFAULT_PRIORITY = 5

_NO_DEADLINE = float("inf")


class FleetJob:
    """One sweep job admitted to the fleet: inputs + per-job ledgers.

    What one :class:`~repro.pipeline.parallel.ParallelSweep` run admits:
    a model, a ``(resolution, orientation)`` grid, a picklable
    :class:`ChainConfig`, and the accounting that must stay per-job
    even when execution is shared - scheduler counters, cache stats,
    trace spans, transport bytes, cell results/errors.
    """

    def __init__(
        self,
        job_id: str,
        model: Any,
        grid: Sequence[Tuple[Any, Any]],
        config: ChainConfig,
        assess: Optional[Callable[[Any], Any]] = None,
        analyze_seam: bool = True,
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
        on_complete: Optional[Callable[["FleetJob"], None]] = None,
    ):
        if not grid:
            raise PipelineConfigError("a fleet job needs a non-empty grid")
        self.job_id = job_id
        self.model = model
        self.grid = list(grid)
        self.config = config
        self.assess = assess
        self.analyze_seam = analyze_seam
        self.priority = priority
        self.deadline_s = deadline_s
        self.on_complete = on_complete
        # Filled at admission.
        self.seq: int = 0
        self.admitted_s: Optional[float] = None
        self.deadline_at: float = _NO_DEADLINE
        self.chain = None  # planning chain (stage order + key functions)
        self.model_ref: Tuple[str, Any] = ("inline", model)
        # Per-job ledgers.
        self.counters = SchedulerStats()
        self.stats = CacheStats()
        self.transport = TransportStats()
        self.spans: List[dict] = []
        self.results: Dict[int, SweepCellResult] = {}
        self.errors: Dict[int, SweepCellError] = {}
        self.cell_attempts: Dict[int, int] = {}
        self.cell_digests: Dict[int, Dict[str, str]] = {}
        self.cell_nodes: Dict[int, Dict[str, "FleetNode"]] = {}
        self.cancelled = False
        self.report: Optional[SweepReport] = None
        self._start_tick: float = 0.0

    def rank(self) -> Tuple:
        """Urgency: priority first, then deadline, then admission order."""
        return (self.priority, self.deadline_at, self.seq)

    def cell_label(self, index: int) -> str:
        resolution, orientation = self.grid[index]
        return f"{resolution.name}/{orientation.value}"

    @property
    def resolved(self) -> int:
        return len(self.results) + len(self.errors)


class FleetNode:
    """One schedulable unit of the fleet-wide merged graph.

    Identity is ``(stage name, content digest)``; ``claims`` lists the
    ``(job_id, cell index)`` pairs that need the node, across cells and
    jobs, in claim order (the creating cell's claim first).
    """

    __slots__ = (
        "stage_name", "position", "digest", "key", "deps", "dependents",
        "claims", "creator", "state", "record", "computed_by", "missing",
    )

    def __init__(self, stage_name, position, digest, key, deps):
        self.stage_name = stage_name
        #: Topological position of the stage (heap tie-break: upstream
        #: nodes first).
        self.position = position
        self.digest = digest
        self.key = key
        self.deps: Tuple[Tuple, ...] = deps
        #: Entries waiting on this node: ("node", key) or
        #: ("final", job_id, index).
        self.dependents: List[Tuple] = []
        self.claims: List[Tuple[str, int]] = []
        self.creator: Optional[str] = None
        self.state = PENDING
        self.record: Optional[NodeRecord] = None
        #: The claim whose job was attributed the execution.
        self.computed_by: Optional[Tuple[str, int]] = None
        #: Unmet upstream dependency count.
        self.missing = 0


class FleetScheduler:
    """Admits jobs into one running fleet-wide schedule.

    Parameters
    ----------
    cache_dir:
        Shared :class:`DiskStageCache` directory every job's artifacts
        flow through.  Required when ``jobs > 1`` (the workers share
        artifacts through it); with ``jobs == 1`` and no directory the
        fleet runs on one in-memory :class:`StageCache`.
    jobs:
        Worker processes.  ``1`` executes tasks inline in whichever
        thread drives :meth:`step`; ``> 1`` leases executors from
        ``pool`` (or a private :class:`WorkerPool`).
    retry / cell_timeout_s:
        Node-level resilience: the :class:`RetryPolicy` every task
        runs under, and its wall-clock budget.
    keep_going:
        ``True`` (default): a failed cell becomes a structured error in
        its job's report and the rest of the fleet continues.
        ``False``: the victim *job*'s remaining cells are cancelled
        too, and the job completes with that one error (other jobs
        always continue - one tenant's abort must not void another's).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` for the
        fleet-lifetime counters (``fleet.cross_job_deduped``, ...).

    Thread model: :meth:`admit` and :meth:`cancel` are safe from any
    thread; :meth:`step` / :meth:`run_until_idle` must be driven by one
    thread at a time (the service's dispatcher).  Completion callbacks
    fire on the driving thread, outside the fleet lock.
    """

    def __init__(
        self,
        cache_dir,
        jobs: int = 1,
        retry: RetryPolicy = NO_RETRY,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
        max_pool_rebuilds: int = 2,
        pool: Optional[WorkerPool] = None,
        metrics=None,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        if cache_dir is None and jobs > 1:
            raise PipelineConfigError("a pooled fleet needs a cache_dir")
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.jobs = jobs
        self.retry = retry
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.max_pool_rebuilds = max_pool_rebuilds
        self.metrics = metrics
        self._pool_handle = pool if pool is not None else (
            WorkerPool(jobs) if jobs > 1 else None
        )
        self._owned_pool = pool is None and jobs > 1
        self._lock = threading.Lock()
        self._nodes: Dict[Tuple, FleetNode] = {}
        self._jobs: Dict[str, FleetJob] = {}
        #: (rank, push seq, entry) heap; entries go stale when their
        #: node leaves READY (or their final's cell is resolved) and
        #: are skipped at pop.
        self._ready: List[Tuple] = []
        self._push_seq = 0
        self._job_seq = 0
        self._final_missing: Dict[Tuple[str, int], int] = {}
        self._dead_finals: set = set()
        #: future -> (entry, attributed claim, payload bytes)
        self._inflight: Dict[Any, Tuple] = {}
        self._rebuilds = 0
        self._degraded = False
        self._completed: List[FleetJob] = []
        self._roots_published: set = set()
        #: The cache inline tasks run on, created on first use.
        self._inline_cache = None
        # Fleet-lifetime counters (per-job views live on job.counters).
        self.cross_job_deduped = 0
        self.fanout_results = 0
        self.cancelled_nodes = 0

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None and n:
            self.metrics.inc(name, n)

    # -- admission -----------------------------------------------------------

    def admit(self, job: FleetJob) -> FleetJob:
        """Plan ``job`` into the running fleet index (thread-safe).

        Nodes whose ``(stage, digest)`` already exist - created by this
        job's earlier cells or by *other* jobs - are joined, not
        re-planned; a joined node that is already DONE satisfies the
        dependency immediately (late fan-out).  Returns ``job``.
        """
        planning_chain = job.config.build(StageCache())
        digest = model_digest(job.model)
        with self._lock:
            if job.job_id in self._jobs:
                raise PipelineConfigError(
                    f"job {job.job_id!r} is already admitted"
                )
            self._job_seq += 1
            job.seq = self._job_seq
            job.admitted_s = time.time()
            job._start_tick = time.perf_counter()
            if job.deadline_s is not None:
                job.deadline_at = job.admitted_s + job.deadline_s
            job.chain = planning_chain
            job.model_ref = self._publish_root(digest, job.model)
            self._jobs[job.job_id] = job
            for index, (resolution, orientation) in enumerate(job.grid):
                self._plan_cell(job, index, resolution, orientation, digest)
        return job

    def _publish_root(self, digest: str, model) -> Tuple[str, Any]:
        """Handle-passing transport: publish the model root once, ship
        its digest in every payload (falls back to inline on failure).
        Inline execution has no transport, so ``jobs == 1`` keeps the
        model itself."""
        if self.jobs == 1:
            return ("inline", model)
        if digest in self._roots_published:
            return ("handle", digest)
        root_cache = DiskStageCache(self.cache_dir)
        if root_cache.put_root(digest, model):
            self._roots_published.add(digest)
            return ("handle", digest)
        return ("inline", model)

    def _plan_cell(self, job, index, resolution, orientation, root_digest):
        ctx = ChainContext(
            chain=job.chain,
            model=job.model,
            resolution=resolution,
            orientation=orientation,
            analyze_seam=job.analyze_seam,
        )
        ctx.digests["model"] = root_digest
        digests = {"model": root_digest}
        mine: Dict[str, FleetNode] = {}
        for position, stage in enumerate(job.chain.graph.order):
            if stage.name in SWEEP_EXCLUDED:
                continue
            digest = job.chain.graph.node_digest(stage, ctx, digests)
            digests[stage.name] = digest
            key = (stage.name, digest)
            counters = job.counters.stage(stage.name)
            counters.requested += 1
            node = self._nodes.get(key)
            if node is None:
                node = FleetNode(
                    stage_name=stage.name,
                    position=position,
                    digest=digest,
                    key=key,
                    deps=tuple(
                        mine[name].key
                        for name in stage.inputs
                        if name in mine
                    ),
                )
                node.creator = job.job_id
                self._nodes[key] = node
                counters.scheduled += 1
                for dep_key in node.deps:
                    dep = self._nodes[dep_key]
                    if dep.state is not DONE:
                        node.missing += 1
                        dep.dependents.append(("node", key))
                if node.missing == 0:
                    self._push_node(node)
            else:
                counters.deduped += 1
                if node.creator != job.job_id:
                    job.counters.cross_job_deduped += 1
                    self.cross_job_deduped += 1
                    self._inc("fleet.cross_job_deduped")
                    if node.state is DONE:
                        # The node finished before this job even
                        # arrived; its result fans out immediately.
                        job.counters.fanout_results += 1
                        self.fanout_results += 1
                        self._inc("fleet.fanout_results")
                if node.state is READY:
                    # An urgent claimant may improve the node's rank;
                    # re-push (the stale entry is skipped at pop).
                    self._push_node(node, repush=True)
            node.claims.append((job.job_id, index))
            mine[stage.name] = node
        job.cell_digests[index] = digests
        job.cell_nodes[index] = mine
        fkey = (job.job_id, index)
        missing = 0
        for name in OUTCOME_STAGES:
            node = mine[name]
            if node.state is not DONE:
                missing += 1
                node.dependents.append(("final", job.job_id, index))
        self._final_missing[fkey] = missing
        if missing == 0:
            self._push(("final", job.job_id, index))

    # -- ready heap ----------------------------------------------------------

    def _entry_rank(self, entry) -> Tuple:
        if entry[0] == "node":
            node = self._nodes[entry[1]]
            best = min(
                (
                    self._jobs[job_id].rank()
                    for job_id, _ in node.claims
                    if job_id in self._jobs
                ),
                default=(DEFAULT_PRIORITY, _NO_DEADLINE, 0),
            )
            return (*best, node.position)
        job = self._jobs[entry[1]]
        # Finals sort after every node of equal urgency.
        return (*job.rank(), 1_000_000 + entry[2])

    def _push(self, entry) -> None:
        self._push_seq += 1
        heapq.heappush(self._ready, (self._entry_rank(entry),
                                     self._push_seq, entry))

    def _push_node(self, node: FleetNode, repush: bool = False) -> None:
        if not repush:
            node.state = READY
        self._push(("node", node.key))

    def _pop(self) -> Optional[Tuple]:
        """Next live ready entry; marks node entries RUNNING."""
        while self._ready:
            _, _, entry = heapq.heappop(self._ready)
            if entry[0] == "node":
                node = self._nodes.get(entry[1])
                if node is None or node.state is not READY:
                    continue  # stale: released, running, or done
                node.state = RUNNING
                return entry
            fkey = (entry[1], entry[2])
            if fkey in self._dead_finals or entry[1] not in self._jobs:
                continue
            job = self._jobs[entry[1]]
            if entry[2] in job.results or entry[2] in job.errors:
                continue
            return entry
        return None

    # -- attribution ---------------------------------------------------------

    def _live_claim(self, node: FleetNode,
                    preferred: Optional[Tuple[str, int]] = None):
        """The claim execution is attributed to: the dispatching claim
        if its job and cell are both still live, else the first
        surviving claim, else ``None`` (everyone cancelled)."""
        def alive(claim):
            job = self._jobs.get(claim[0])
            return (
                job is not None
                and not job.cancelled
                and claim[1] not in job.errors
            )
        if preferred is not None and preferred in node.claims \
                and alive(preferred):
            return preferred
        for claim in node.claims:
            if alive(claim):
                return claim
        return None

    def _route(self, job: FleetJob, delta, spans) -> None:
        """Atomically credit one task's stats delta + spans to ``job``."""
        if delta is not None:
            job.stats.merge(delta)
        if spans:
            job.spans.extend(spans)

    # -- task payloads -------------------------------------------------------

    def _payload(self, entry, claim) -> Tuple:
        job = self._jobs[claim[0]]
        index = claim[1]
        if entry[0] == "node":
            node = self._nodes[entry[1]]
            kind, stage_name, digest = "node", node.stage_name, node.digest
            assess = None
        else:
            kind, stage_name, digest = "final", None, None
            assess = job.assess
        resolution, orientation = job.grid[index]
        return (
            job.config,
            self.cache_dir,
            kind,
            stage_name,
            digest,
            resolution,
            orientation,
            job.analyze_seam,
            job.model_ref,
            job.cell_digests[index],
            self.retry,
            self.cell_timeout_s,
            assess,
            job.cell_attempts.get(index, 1),
        )

    # -- absorption ----------------------------------------------------------

    def _absorb(self, entry, claim, shipped) -> None:
        """Fold one finished task back into the fleet (under the lock)."""
        result, error, delta, spans = shipped
        if entry[0] == "node":
            node = self._nodes.get(entry[1])
            if node is None:
                return  # released while running; result lives in cache
            if error is not None:
                self._node_failed(node, claim, error, delta, spans)
            else:
                self._node_done(node, claim, result, delta, spans)
        else:
            job = self._jobs.get(entry[1])
            if job is None:
                return  # job cancelled while its finalize ran
            index = entry[2]
            self._route(job, delta, spans)
            if error is not None:
                job.errors[index] = replace(
                    error,
                    attempts=max(
                        error.attempts, job.cell_attempts.get(index, 1)
                    ),
                )
                self._release_cell(job, index)
                if not self.keep_going:
                    self._cancel_job_cells(job)
            else:
                fingerprint, assessment, attempts = result
                job.results[index] = SweepCellResult(
                    resolution=job.grid[index][0].name,
                    orientation=job.grid[index][1].value,
                    fingerprint=fingerprint,
                    assessment=assessment,
                    stage_log=self._stage_log(job, index),
                    attempts=max(attempts, job.cell_attempts.get(index, 1)),
                )
            self._maybe_complete(job)

    def _node_done(self, node, claim, record, delta, spans) -> None:
        attributed = self._live_claim(node, claim)
        node.record = record
        node.state = DONE
        node.computed_by = attributed
        if attributed is not None:
            job = self._jobs[attributed[0]]
            self._route(job, delta, spans)
            job.counters.stage(node.stage_name).executed += 1
            if record.attempts > 1:
                index = attributed[1]
                job.cell_attempts[index] = max(
                    job.cell_attempts.get(index, 1), record.attempts
                )
            # Fan-out: every *other* live claiming job receives the
            # result without having executed anything.
            receivers = {
                job_id for job_id, _ in node.claims
                if job_id != attributed[0] and job_id in self._jobs
            }
            for job_id in receivers:
                self._jobs[job_id].counters.fanout_results += 1
            self.fanout_results += len(receivers)
            self._inc("fleet.fanout_results", len(receivers))
        for entry in node.dependents:
            self._dependency_met(entry)
        node.dependents = []

    def _dependency_met(self, entry) -> None:
        if entry[0] == "node":
            dep = self._nodes.get(entry[1])
            if dep is None or dep.state is not PENDING:
                return
            dep.missing -= 1
            if dep.missing == 0:
                self._push_node(dep)
        else:
            fkey = (entry[1], entry[2])
            if fkey in self._dead_finals or fkey not in self._final_missing:
                return
            self._final_missing[fkey] -= 1
            if self._final_missing[fkey] == 0 and entry[1] in self._jobs:
                self._push(("final", entry[1], entry[2]))

    def _node_failed(self, node, claim, error, delta, spans) -> None:
        """Failure splitting: charge the attributed claim's cell only;
        the node re-queues for any surviving claims."""
        victim = self._live_claim(node, claim)
        if victim is None:
            # Everyone cancelled meanwhile; drop the node quietly.
            node.state = RELEASED
            self._nodes.pop(node.key, None)
            return
        job = self._jobs[victim[0]]
        index = victim[1]
        resolution, orientation = job.grid[index]
        attributed = replace(
            error,
            resolution=resolution.name,
            orientation=orientation.value,
            attempts=max(error.attempts, job.cell_attempts.get(index, 1)),
        )
        self._route(job, delta, spans)
        job.errors[index] = attributed
        # The victim job's audit trail must witness the failed cell
        # even though its finalize never runs.
        job.spans.append(obs.Span(
            name="sweep.cell",
            span_id=f"{os.getpid():x}-fleet-{job.job_id}-{index}",
            parent_id=None,
            pid=os.getpid(),
            start_s=time.time(),
            duration_s=0.0,
            attrs={
                "cell": job.cell_label(index),
                "resolution": resolution.name,
                "orientation": orientation.value,
                "outcome": "error",
                "error_type": attributed.error_type,
                "attempts": attributed.attempts,
            },
        ).to_dict())
        self._release_cell(job, index)
        if node.claims:
            # Surviving claims still need the node; its fault budget
            # was spent on the victim's attempt, so re-queue it.
            self._push_node(node)
        else:
            node.state = RELEASED
            self._nodes.pop(node.key, None)
        if not self.keep_going:
            self._cancel_job_cells(job)
        self._maybe_complete(job)

    def _release_cell(self, job, index, count_cancelled=False) -> int:
        """Drop one cell's claims; release nodes nobody wants anymore.

        Returns the number of unexecuted nodes released.
        """
        self._dead_finals.add((job.job_id, index))
        released = 0
        claim = (job.job_id, index)
        for node in job.cell_nodes.get(index, {}).values():
            while claim in node.claims:
                node.claims.remove(claim)
            if not node.claims and node.state in (PENDING, READY):
                node.state = RELEASED
                self._nodes.pop(node.key, None)
                released += 1
        if count_cancelled and released:
            job.counters.cancelled_nodes += released
            self.cancelled_nodes += released
            self._inc("fleet.cancelled_nodes", released)
        return released

    def _cancel_job_cells(self, job) -> None:
        for index in range(len(job.grid)):
            if index not in job.results and index not in job.errors:
                self._release_cell(job, index)

    # -- per-job views -------------------------------------------------------

    def _stage_log(self, job, index) -> Tuple[StageExecution, ...]:
        """The cell's stage log: executions this job was attributed
        show their real hit/seconds; shared executions are free hits."""
        log = []
        claim = (job.job_id, index)
        for stage in job.chain.graph.order:
            node = job.cell_nodes[index].get(stage.name)
            if node is None or node.record is None:
                continue
            mine = node.computed_by == claim
            log.append(StageExecution(
                stage.name,
                node.digest,
                node.record.cache_hit if mine else True,
                node.record.seconds if mine else 0.0,
            ))
        return tuple(log)

    def _maybe_complete(self, job) -> None:
        if job.job_id not in self._jobs:
            return
        # A cell released by a keep_going=False abort is resolved too:
        # it will never produce a result or an error.
        unresolved = [
            i for i in range(len(job.grid))
            if i not in job.results and i not in job.errors
            and (job.job_id, i) not in self._dead_finals
        ]
        if unresolved:
            return
        job.report = SweepReport(
            cells=[job.results[i] for i in sorted(job.results)],
            errors=[job.errors[i] for i in sorted(job.errors)],
            stats=job.stats,
            jobs=self.jobs,
            wall_s=time.perf_counter() - job._start_tick,
            pool_rebuilds=self._rebuilds,
            degraded_to_serial=self._degraded,
            scheduler=job.counters,
            transport=job.transport if self.jobs > 1 else None,
        )
        # One parent-side span witnesses the job from the dispatching
        # process, so a pooled job's merged trace always carries >= 2
        # pids (the artifact checker's proof that worker spans were
        # shipped back).
        job.spans.append(obs.Span(
            name="fleet.job",
            span_id=f"{os.getpid():x}-fleet-{job.job_id}",
            parent_id=None,
            pid=os.getpid(),
            start_s=job.admitted_s or time.time(),
            duration_s=job.report.wall_s,
            attrs={
                "job_id": job.job_id,
                "cells": len(job.grid),
                "priority": job.priority,
                "cross_job_deduped": job.counters.cross_job_deduped,
                "fanout_results": job.counters.fanout_results,
            },
        ).to_dict())
        self._retire(job)

    def _retire(self, job) -> None:
        for index in range(len(job.grid)):
            claim = (job.job_id, index)
            self._dead_finals.discard(claim)
            self._final_missing.pop(claim, None)
            for node in job.cell_nodes.get(index, {}).values():
                while claim in node.claims:
                    node.claims.remove(claim)
                if not node.claims and node.state is not RUNNING:
                    self._nodes.pop(node.key, None)
        del self._jobs[job.job_id]
        self._completed.append(job)

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel an admitted job (thread-safe).

        Queued nodes referenced by no other job are released and
        counted as ``cancelled_nodes``; RUNNING and shared nodes
        survive untouched, so the surviving jobs' results are not
        perturbed.  The job's completion callback fires (from the
        driving thread, or here if idle) with ``job.cancelled`` set and
        no report.  Returns False when the fleet does not know the job
        (never admitted, or already completed).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            job.cancelled = True
            for index in range(len(job.grid)):
                if index not in job.results and index not in job.errors:
                    self._release_cell(job, index, count_cancelled=True)
            self._retire(job)
        self._fire_callbacks()
        return True

    def abort_all(self, reason: str) -> None:
        """Fail every active job (service shutdown path)."""
        with self._lock:
            for job in list(self._jobs.values()):
                job.cancelled = True
                self._cancel_job_cells(job)
                self._retire(job)
        self._fire_callbacks()

    # -- execution -----------------------------------------------------------

    def active_count(self) -> int:
        with self._lock:
            return len(self._jobs)

    def has_work(self) -> bool:
        with self._lock:
            return bool(self._jobs) or bool(self._inflight)

    def step(self, timeout: float = 0.1) -> bool:
        """Advance the fleet a little; returns True on any progress.

        Inline mode executes exactly one ready entry (so the driving
        loop stays responsive to admissions and cancellations between
        nodes); pool mode submits every ready entry and waits up to
        ``timeout`` for completions.
        """
        progressed = False
        if self.jobs > 1 and not self._degraded:
            progressed = self._step_pool(timeout)
        else:
            progressed = self._step_inline()
        self._fire_callbacks()
        return progressed

    def run_until_idle(self) -> List[FleetJob]:
        """Drive :meth:`step` until no admitted job remains (tests and
        batch callers); returns the jobs completed meanwhile."""
        drained: List[FleetJob] = []
        before = len(self._completed)
        while self.has_work():
            self.step()
        with self._lock:
            drained = self._completed[before:]
        return drained

    def shutdown(self) -> None:
        if self._owned_pool and self._pool_handle is not None:
            self._pool_handle.shutdown()

    def _fire_callbacks(self) -> None:
        with self._lock:
            done, self._completed = self._completed, []
        for job in done:
            if job.on_complete is not None:
                job.on_complete(job)

    # -- inline execution ----------------------------------------------------

    def _step_inline(self) -> bool:
        with self._lock:
            entry = self._pop()
            if entry is None:
                return False
            claim = self._claim_for(entry)
            if claim is None:
                self._drop_unclaimed(entry)
                return True
            payload = self._payload(entry, claim)
            if self._inline_cache is None:
                self._inline_cache = (
                    StageCache() if self.cache_dir is None
                    else DiskStageCache(self.cache_dir)
                )
        # The task installs its own tracer; preserve whatever tracer
        # the embedding process had installed.
        prev = obs.get_tracer()
        try:
            shipped = run_task(self._inline_cache, payload)
        finally:
            if prev is not None and obs.get_tracer() is not prev:
                obs.install(prev)
        with self._lock:
            self._absorb(entry, claim, shipped)
        return True

    def _claim_for(self, entry):
        if entry[0] == "node":
            return self._live_claim(self._nodes[entry[1]])
        return (entry[1], entry[2])

    def _drop_unclaimed(self, entry) -> None:
        """A popped node every claimant abandoned: release it."""
        if entry[0] == "node":
            node = self._nodes.get(entry[1])
            if node is not None:
                node.state = RELEASED
                self._nodes.pop(node.key, None)

    # -- pool execution ------------------------------------------------------

    def _step_pool(self, timeout: float) -> bool:
        progressed = False
        try:
            pool = self._pool_handle.get()
            while True:
                with self._lock:
                    entry = self._pop()
                    if entry is None:
                        break
                    claim = self._claim_for(entry)
                    if claim is None:
                        self._drop_unclaimed(entry)
                        progressed = True
                        continue
                    payload = self._payload(entry, claim)
                try:
                    future = pool.submit(_run_node_task, payload)
                except BrokenProcessPool:
                    with self._lock:
                        self._requeue(entry)
                    raise
                size = len(pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL
                ))
                self._inflight[future] = (entry, claim, size)
            if not self._inflight:
                return progressed
            done, _ = wait(
                list(self._inflight),
                timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                # Read the result first: a dead worker raises here, and
                # the entry must still be in flight so the broken-pool
                # handler requeues it.
                shipped = future.result()
                entry, claim, size = self._inflight.pop(future)
                with self._lock:
                    self._record_transport(claim, size, shipped)
                    self._absorb(entry, claim, shipped)
                progressed = True
            return progressed
        except BrokenProcessPool:
            self._handle_broken_pool()
            return True

    def _record_transport(self, claim, payload_bytes, shipped) -> None:
        job = self._jobs.get(claim[0])
        if job is None:
            return
        job.transport.record(
            payload_bytes,
            len(pickle.dumps(shipped, protocol=pickle.HIGHEST_PROTOCOL)),
            job.model_ref[0] == "handle",
        )

    def _requeue(self, entry) -> None:
        if entry[0] == "node":
            node = self._nodes.get(entry[1])
            if node is not None and node.state is RUNNING:
                self._push_node(node)
        elif entry[1] in self._jobs:
            # A final whose job completed (keep_going=False abort) or
            # was cancelled while the task ran has no one to requeue for.
            self._push(entry)

    def _handle_broken_pool(self) -> None:
        """Harvest what finished, requeue the lost tasks, and rebuild
        the pool a bounded number of times before degrading to inline
        execution."""
        self._rebuilds += 1
        for future, (entry, claim, size) in list(self._inflight.items()):
            harvested = False
            if future.done() and not future.cancelled():
                try:
                    shipped = future.result()
                except BaseException:
                    pass
                else:
                    with self._lock:
                        self._record_transport(claim, size, shipped)
                        self._absorb(entry, claim, shipped)
                    harvested = True
            if not harvested:
                with self._lock:
                    self._requeue(entry)
        self._inflight.clear()
        if shm_tier.shm_enabled():
            # Dead workers may have published shared-memory blocks they
            # can no longer clean up; reap them before the replacement
            # pool republishes what it needs.
            shm_tier.cleanup_registry(
                Path(self.cache_dir) / shm_tier.REGISTRY_NAME
            )
        if self._rebuilds > self.max_pool_rebuilds:
            self._degraded = True
            if not self._owned_pool:
                # A shared pool must come back healthy for its next
                # lease; swap the broken executor out now.
                self._pool_handle.rebuild()
            return
        self._pool_handle.rebuild()
