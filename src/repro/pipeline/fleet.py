"""The one scheduler: many sweep jobs merged into one node set.

Every sweep runs here.  A :class:`~repro.pipeline.parallel.ParallelSweep`
is a fleet of one job; the job service admits many jobs from many
tenants into one long-lived fleet.  Jobs are *admitted incrementally*
into one fleet-wide node index keyed by ``(stage name, content
digest)``, so a node claimed by several cells - tessellate and resolve
depend only on the resolution, not the orientation - or by several
jobs, even jobs submitted while the fleet is already running, executes
exactly once, with its result fanned out to every consumer.

Every schedulable unit is a :class:`FleetNode` with one lifecycle
(``PENDING`` -> ``READY`` -> ``RUNNING`` -> ``DONE``, or ``RELEASED``
when it leaves the index unexecuted):

* a *stage node* is keyed ``(stage name, content digest)`` and claimed
  by every ``(job, cell)`` that needs it;
* a cell's *finalize* (assemble the outcome, fingerprint it, assess
  it) is a node keyed ``(FINALIZE_STAGE, job id, cell index)``: its one
  claim is its cell, its dependencies are the cell's outcome-stage
  nodes, and it ranks after every stage node of equal urgency.  It
  never enters :class:`~repro.pipeline.graph.SchedulerStats`, and the
  cell is resolved once its claim has left the node;
* a node with no claim left leaves the index, at once or, if it is
  running, when its result comes back - so an idle fleet holds no
  node at all.

Per-job accounting is split out of shared-node execution:

* every task is *attributed* to exactly one live claim - the job whose
  stats delta, trace spans and ``executed`` counter record it.
  Consuming jobs see the node in their stage logs as a free hit
  (``hit=True, 0.0s``) with no span and no stats contribution, so each
  job's trace and manifest stay in exact agreement (the
  ``check_run_artifacts.py`` invariant), and a job's outcome
  fingerprints are bit-identical to running it alone serially;
* a failed shared node charges the attributed claim's cell only
  (failure splitting), cancels that cell, and re-queues the node for
  the surviving claims - other cells and jobs never inherit a victim's
  error;
* cancelling a job releases its queued nodes *unless another job still
  claims them*: shared nodes survive, running nodes finish (their
  results re-attach to surviving claimants), and the fleet counts the
  released work as ``cancelled_nodes``.

Admission also applies *early cutoff* (Mokhov, Mitchell and Peyton
Jones, *Build Systems a la Carte*): a cell's content digests are pure,
so planning computes them first and looks up the cell's
:func:`~repro.pipeline.report.finalize_key` in the finalize memo,
which every successful finalize seeds.  A hit resolves the cell at
admission - no node, no task, no artifact load, no stage counter -
and counts it as ``cutoff_cells``; a job whose every cell is cut off
completes inside :meth:`FleetScheduler.admit`.  The fleet is the
memo's only reader and writer, and only assess callables with a
stable identity are memoized.  The memo lives in the cache's process
memory; a :class:`~repro.pipeline.disk.DiskStageCache` also persists
every entry, hash-verified like any stage artifact.  A job admitted
with ``resume=True`` falls back to that persisted memo, so resuming a
sweep over its cache directory cuts off every cell an earlier run
finalized.

Scheduling order respects job priorities (lower = more urgent),
deadlines and admission order: a ready node ranks by the most urgent
job claiming it, so an urgent job admitted late overtakes the backlog
of a patient one without starving it (shared nodes are executed once
for both anyway).

Tasks run through :func:`~repro.pipeline.scheduler.run_task` - inline
in the dispatching thread on the fleet's cache when ``jobs == 1`` (or
after pool-rebuild exhaustion), or fanned out over a warm
:class:`~repro.pipeline.scheduler.WorkerPool` whose workers open the
same on-disk cache by its root directory.  A worker death
(:class:`~concurrent.futures.process.BrokenProcessPool`) requeues the
lost tasks and rebuilds the pool up to :data:`MAX_POOL_REBUILDS` times
before the fleet degrades to inline execution.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import observability as obs
from repro.mesh.content_hash import model_digest
from repro.pipeline.cache import CacheStats, StageCache
from repro.pipeline.chain import ChainContext
from repro.pipeline.disk import FINALIZE_STAGE, DiskStageCache
from repro.pipeline.graph import SchedulerStats, node_digest
from repro.pipeline.report import (
    SweepCellError,
    SweepCellResult,
    SweepReport,
    TransportStats,
    finalize_key,
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
RELEASED = "released"    # left the index unexecuted (no claim left)

#: Default job priority (lower is more urgent; 0..9 by convention).
DEFAULT_PRIORITY = 5

#: Pool rebuilds attempted after worker deaths before the fleet
#: degrades to inline execution of the remaining tasks.
MAX_POOL_REBUILDS = 2

#: Finalize nodes sort after every stage node of equal urgency.
_FINAL_POSITION = 1_000_000

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
        priority: int = DEFAULT_PRIORITY,
        deadline_s: Optional[float] = None,
        on_complete: Optional[Callable[["FleetJob"], None]] = None,
        resume: bool = False,
    ):
        if not grid:
            raise PipelineConfigError("a fleet job needs a non-empty grid")
        self.job_id = job_id
        self.model = model
        self.grid = list(grid)
        self.config = config
        self.assess = assess
        self.priority = priority
        self.deadline_s = deadline_s
        self.on_complete = on_complete
        #: Also cut off cells whose verdict an earlier run persisted
        #: in the fleet's disk cache (needs a :class:`DiskStageCache`).
        self.resume = resume
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
        #: Per planned (not cut-off) cell: its nodes by stage name, its
        #: finalize node under :data:`FINALIZE_STAGE`.
        self.cell_nodes: Dict[int, Dict[str, "FleetNode"]] = {}
        self.cancelled = False
        self.report: Optional[SweepReport] = None
        self._start_tick: float = 0.0
        #: The fleet's pool rebuild count when this job was admitted.
        self._rebuilds_at_admit: int = 0

    def rank(self) -> Tuple:
        """Urgency: priority first, then deadline, then admission order."""
        return (self.priority, self.deadline_at, self.seq)

    def cell_label(self, index: int) -> str:
        resolution, orientation = self.grid[index]
        return f"{resolution.name}/{orientation.value}"


class FleetNode:
    """One schedulable unit of the fleet-wide merged graph.

    A stage node's identity is ``(stage name, content digest)``; a
    finalize node's is ``(FINALIZE_STAGE, job id, cell index)`` with no
    digest.  ``claims`` lists the ``(job_id, cell index)`` pairs that
    need the node, across cells and jobs, in claim order (the creating
    cell's claim first).
    """

    __slots__ = (
        "stage_name", "position", "digest", "key", "dependents", "claims",
        "creator", "state", "record", "computed_by", "missing",
    )

    def __init__(self, stage_name, position, digest, key):
        self.stage_name = stage_name
        #: Position of the stage in the chain (heap tie-break: upstream
        #: nodes first).
        self.position = position
        self.digest = digest
        self.key = key
        #: Nodes waiting on this one.
        self.dependents: List["FleetNode"] = []
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
    cache:
        The :class:`StageCache` every job's artifacts flow through.
        Inline tasks run on it, and its derived memo is the finalize
        memo every admission checks.  A pooled
        fleet (``jobs > 1``) needs a :class:`DiskStageCache`: its
        workers open the cache's ``root``.
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
        fleet-lifetime counters (``fleet.cross_job_deduped``,
        ``fleet.cutoff_cells``, ...).

    Thread model: :meth:`admit` and :meth:`cancel` are safe from any
    thread; :meth:`step` / :meth:`run_until_idle` must be driven by one
    thread at a time (the service's dispatcher).  Completion callbacks
    fire on the driving thread, outside the fleet lock - also for a job
    cut off entirely at admission, which is why :meth:`has_work` stays
    true until every completed job's callback has fired.
    """

    def __init__(
        self,
        cache: StageCache,
        jobs: int = 1,
        retry: RetryPolicy = NO_RETRY,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
        pool: Optional[WorkerPool] = None,
        metrics=None,
    ):
        if jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        if jobs > 1 and not isinstance(cache, DiskStageCache):
            raise PipelineConfigError("a pooled fleet needs a DiskStageCache")
        self.cache = cache
        #: The directory pool workers open; inline tasks need none.
        self._cache_root = str(cache.root) if jobs > 1 else None
        self.jobs = jobs
        self.retry = retry
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.metrics = metrics
        self._pool_handle = pool if pool is not None else (
            WorkerPool(jobs) if jobs > 1 else None
        )
        self._owned_pool = pool is None and jobs > 1
        self._lock = threading.Lock()
        self._nodes: Dict[Tuple, FleetNode] = {}
        self._jobs: Dict[str, FleetJob] = {}
        #: (rank, push seq, node key) heap; entries go stale when their
        #: node leaves READY and are skipped at pop.
        self._ready: List[Tuple] = []
        self._push_seq = 0
        self._job_seq = 0
        #: future -> (node, attributed claim, payload bytes)
        self._inflight: Dict[Any, Tuple] = {}
        self._rebuilds = 0
        self._degraded = False
        self._completed: List[FleetJob] = []
        self._roots_published: set = set()
        # Fleet-lifetime counters (per-job views live on job.counters).
        self.cross_job_deduped = 0
        self.fanout_results = 0
        self.cancelled_nodes = 0
        self.cutoff_cells = 0

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None and n:
            self.metrics.inc(name, n)

    def _finalize_key(self, job: FleetJob, index: int) -> Optional[str]:
        digests = job.cell_digests[index]
        return finalize_key(
            (digests[name] for name in OUTCOME_STAGES), job.assess
        )

    # -- admission -----------------------------------------------------------

    def admit(self, job: FleetJob) -> FleetJob:
        """Plan ``job`` into the running fleet index (thread-safe).

        A cell whose finalize memo hits is cut off: it resolves here,
        with no node claimed.  Nodes whose ``(stage, digest)`` already
        exist - created by this job's earlier cells or by *other* jobs
        - are shared, not re-planned; a shared node that is already
        DONE satisfies the dependency immediately (late fan-out).  A
        job whose every cell is cut off completes here; its callback
        fires from the next :meth:`step`.  Returns ``job``.
        """
        if job.resume and not isinstance(self.cache, DiskStageCache):
            raise PipelineConfigError("a resumed job needs a DiskStageCache")
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
            job._rebuilds_at_admit = self._rebuilds
            if job.deadline_s is not None:
                job.deadline_at = job.admitted_s + job.deadline_s
            job.chain = planning_chain
            job.model_ref = self._publish_root(digest, job.model)
            self._jobs[job.job_id] = job
            for index, (resolution, orientation) in enumerate(job.grid):
                self._plan_cell(job, index, resolution, orientation, digest)
            self._maybe_complete(job)
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
        if self.cache.put_root(digest, model):
            self._roots_published.add(digest)
            return ("handle", digest)
        return ("inline", model)

    def _plan_cell(self, job, index, resolution, orientation, root_digest):
        ctx = ChainContext(
            chain=job.chain,
            model=job.model,
            resolution=resolution,
            orientation=orientation,
        )
        ctx.digests["model"] = root_digest
        digests = {"model": root_digest}
        planned = []
        for position, stage in enumerate(job.chain.stages):
            if stage.name in SWEEP_EXCLUDED:
                continue
            digests[stage.name] = node_digest(stage, ctx, digests)
            planned.append((position, stage))
        job.cell_digests[index] = digests
        memo_key = self._finalize_key(job, index)
        if memo_key is not None:
            memo = self.cache.derived_get(memo_key)
            if memo is None and job.resume:
                # A tampered entry is quarantined here, in the parent,
                # outside every task's stats delta: charge it to the job.
                failures = self.cache.stats.integrity_failures
                memo, _ = self.cache._load(FINALIZE_STAGE, memo_key)
                job.stats.integrity_failures += (
                    self.cache.stats.integrity_failures - failures
                )
            if memo is not None:
                self._cut_off(job, index, planned, memo)
                return
        claim = (job.job_id, index)
        mine: Dict[str, FleetNode] = {}
        for position, stage in planned:
            key = (stage.name, digests[stage.name])
            counters = job.counters.stage(stage.name)
            counters.requested += 1
            node = self._nodes.get(key)
            if node is None:
                node = self._add_node(
                    stage.name, position, key[1], key,
                    tuple(mine[name].key for name in stage.inputs
                          if name in mine),
                    claim,
                )
                counters.scheduled += 1
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
                node.claims.append(claim)
                if node.state is READY:
                    # An urgent claimant may improve the node's rank;
                    # re-push (the stale entry is skipped at pop).
                    self._push_node(node, repush=True)
            mine[stage.name] = node
        mine[FINALIZE_STAGE] = self._add_node(
            FINALIZE_STAGE, _FINAL_POSITION + index, None,
            (FINALIZE_STAGE, job.job_id, index),
            tuple(mine[name].key for name in OUTCOME_STAGES),
            claim,
        )
        job.cell_nodes[index] = mine

    def _add_node(self, stage_name, position, digest, key, deps, claim):
        """Index a new node claimed by ``claim``; ready it if every
        dependency is already DONE."""
        node = FleetNode(stage_name, position, digest, key)
        node.creator = claim[0]
        node.claims.append(claim)
        self._nodes[key] = node
        for dep_key in deps:
            dep = self._nodes[dep_key]
            if dep.state is not DONE:
                node.missing += 1
                dep.dependents.append(node)
        if node.missing == 0:
            self._push_node(node)
        return node

    def _cut_off(self, job, index, planned, memo) -> None:
        """Early cutoff: resolve a memoized cell at admission.

        The cell claims no node, ships no task and touches no stage
        counter (``requested == scheduled + deduped`` keeps holding);
        its stage log lists every planned stage as a free hit, like a
        node another job executed.
        """
        fingerprint, assessment = memo
        resolution, orientation = job.grid[index]
        digests = job.cell_digests[index]
        job.results[index] = SweepCellResult(
            resolution=resolution.name,
            orientation=orientation.value,
            fingerprint=fingerprint,
            assessment=assessment,
            stage_log=tuple(
                StageExecution(stage.name, digests[stage.name], True, 0.0)
                for _, stage in planned
            ),
            attempts=1,
        )
        job.counters.cutoff_cells += 1
        self.cutoff_cells += 1
        self._inc("fleet.cutoff_cells")
        self._cell_span(job, index, outcome="ok", attempts=1,
                        fingerprint=fingerprint, cutoff=True)

    def _cell_span(self, job, index, **attrs) -> None:
        """A parent-side ``sweep.cell`` span witnessing a cell that no
        finalize task ran for (a cut-off cell, a failed node's victim):
        the job's audit trail must still show it."""
        resolution, orientation = job.grid[index]
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
                **attrs,
            },
        ).to_dict())

    # -- ready heap ----------------------------------------------------------

    def _push_node(self, node: FleetNode, repush: bool = False) -> None:
        if not repush:
            node.state = READY
        best = min(
            (
                self._jobs[job_id].rank()
                for job_id, _ in node.claims
                if job_id in self._jobs
            ),
            default=(DEFAULT_PRIORITY, _NO_DEADLINE, 0),
        )
        self._push_seq += 1
        heapq.heappush(
            self._ready, ((*best, node.position), self._push_seq, node.key)
        )

    def _next_task(self) -> Optional[Tuple[FleetNode, Tuple[str, int], Tuple]]:
        """Pop the next READY node with a live claim and mark it
        RUNNING: ``(node, claim, payload)``, or ``None`` once nothing is
        ready.  A popped node every claimant abandoned leaves the index."""
        while self._ready:
            _, _, key = heapq.heappop(self._ready)
            node = self._nodes.get(key)
            if node is None or node.state is not READY:
                continue  # stale: released, running, or done
            node.state = RUNNING
            claim = self._live_claim(node)
            if claim is None:
                self._forget(node)
                continue
            return node, claim, self._payload(node, claim)
        return None

    def _forget(self, node: FleetNode) -> None:
        """Take ``node`` out of the index (a later node with the same
        key is left alone)."""
        if node.state is not DONE:
            node.state = RELEASED
        if self._nodes.get(node.key) is node:
            del self._nodes[node.key]
        if not self._nodes:
            self._ready.clear()  # every entry left names a released node

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

    def _payload(self, node: FleetNode, claim) -> Tuple:
        job = self._jobs[claim[0]]
        index = claim[1]
        resolution, orientation = job.grid[index]
        return (
            job.config,
            self._cache_root,
            node.stage_name,
            node.digest,
            resolution,
            orientation,
            job.model_ref,
            job.cell_digests[index],
            self.retry,
            self.cell_timeout_s,
            job.assess if node.stage_name == FINALIZE_STAGE else None,
            job.cell_attempts.get(index, 1),
        )

    # -- absorption ----------------------------------------------------------

    def _absorb(self, node: FleetNode, claim, shipped) -> None:
        """Fold one finished task back into the fleet (under the lock).

        Whatever the outcome, a node left with no live claim leaves the
        index here: nobody is waiting on it any more."""
        result, error, delta, spans = shipped
        if node.stage_name == FINALIZE_STAGE:
            self._final_done(node, claim, result, error, delta, spans)
        elif error is not None:
            self._node_failed(node, claim, error, delta, spans)
        else:
            self._node_done(node, claim, result, delta, spans)
        if self._live_claim(node) is None:
            self._forget(node)

    def _final_done(self, node, claim, result, error, delta, spans) -> None:
        """A cell's verdict (or its error) is taken only while the
        cell's claim is live; taking it removes the claim, which
        resolves the cell."""
        node.state = DONE
        claim = self._live_claim(node, claim)
        if claim is None:
            return  # cancelled or released while its finalize ran
        job = self._jobs[claim[0]]
        index = claim[1]
        self._route(job, delta, spans)
        if error is not None:
            job.errors[index] = replace(
                error,
                attempts=max(error.attempts, job.cell_attempts.get(index, 1)),
            )
            self._release_cell(job, index)
            if not self.keep_going:
                self._cancel_job_cells(job)
        else:
            fingerprint, assessment, attempts = result
            memo_key = self._finalize_key(job, index)
            if memo_key is not None:
                # Seed the memo (a disk cache persists it): a later
                # admission of this cell is cut off.  Errors are never
                # memoized.
                self.cache.derived_put(memo_key, (fingerprint, assessment))
            job.results[index] = SweepCellResult(
                resolution=job.grid[index][0].name,
                orientation=job.grid[index][1].value,
                fingerprint=fingerprint,
                assessment=assessment,
                stage_log=self._stage_log(job, index),
                attempts=max(attempts, job.cell_attempts.get(index, 1)),
            )
            node.claims.remove(claim)
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
        for dependent in node.dependents:
            if dependent.state is PENDING:
                dependent.missing -= 1
                if dependent.missing == 0:
                    self._push_node(dependent)
        node.dependents = []

    def _node_failed(self, node, claim, error, delta, spans) -> None:
        """Failure splitting: charge the attributed claim's cell only;
        the node re-queues for any surviving claims."""
        victim = self._live_claim(node, claim)
        if victim is None:
            return  # everyone cancelled meanwhile
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
        self._cell_span(job, index, outcome="error",
                        error_type=attributed.error_type,
                        attempts=attributed.attempts)
        self._release_cell(job, index)
        if node.claims:
            # Surviving claims still need the node; its fault budget
            # was spent on the victim's attempt, so re-queue it.
            self._push_node(node)
        if not self.keep_going:
            self._cancel_job_cells(job)
        self._maybe_complete(job)

    def _release_cell(self, job, index, count_cancelled=False) -> None:
        """Take one cell's claim off its nodes; a node left with no
        claim leaves the index, unless it is running (then it leaves
        when its result is absorbed)."""
        released = 0
        claim = (job.job_id, index)
        for node in job.cell_nodes.get(index, {}).values():
            while claim in node.claims:
                node.claims.remove(claim)
            if node.claims or node.state is RUNNING:
                continue
            if node.state in (PENDING, READY) \
                    and node.stage_name != FINALIZE_STAGE:
                released += 1
            self._forget(node)
        if count_cancelled and released:
            job.counters.cancelled_nodes += released
            self.cancelled_nodes += released
            self._inc("fleet.cancelled_nodes", released)

    def _cancel_job_cells(self, job, count_cancelled=False) -> None:
        for index in job.cell_nodes:
            if index not in job.results and index not in job.errors:
                self._release_cell(job, index, count_cancelled)

    # -- per-job views -------------------------------------------------------

    def _stage_log(self, job, index) -> Tuple[StageExecution, ...]:
        """The cell's stage log: executions this job was attributed
        show their real hit/seconds; shared executions are free hits."""
        log = []
        claim = (job.job_id, index)
        for stage in job.chain.stages:
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
        # A cell is resolved once its claim has left its finalize node:
        # a verdict was taken, an error charged, or (keep_going=False)
        # the cell was released and will never produce either.
        if any(
            (job.job_id, index) in nodes[FINALIZE_STAGE].claims
            for index, nodes in job.cell_nodes.items()
        ):
            return
        job.report = SweepReport(
            cells=[job.results[i] for i in sorted(job.results)],
            errors=[job.errors[i] for i in sorted(job.errors)],
            stats=job.stats,
            jobs=self.jobs,
            wall_s=time.perf_counter() - job._start_tick,
            pool_rebuilds=self._rebuilds - job._rebuilds_at_admit,
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
                "cutoff_cells": job.counters.cutoff_cells,
            },
        ).to_dict())
        self._retire(job)

    def _retire(self, job) -> None:
        for index in job.cell_nodes:
            self._release_cell(job, index)
        del self._jobs[job.job_id]
        self._completed.append(job)

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel an admitted job (thread-safe).

        Queued nodes referenced by no other job are released and
        counted as ``cancelled_nodes``; shared nodes survive untouched,
        so the surviving jobs' results are not perturbed, and a RUNNING
        node nobody claims any more leaves the index when its result
        comes back.  The job's completion callback fires (from the
        driving thread, or here if idle) with ``job.cancelled`` set and
        no report.  Returns False when the fleet does not know the job
        (never admitted, or already completed).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            job.cancelled = True
            self._cancel_job_cells(job, count_cancelled=True)
            self._retire(job)
        self._fire_callbacks()
        return True

    def abort_all(self) -> None:
        """Fail every active job (service shutdown path)."""
        with self._lock:
            for job in list(self._jobs.values()):
                job.cancelled = True
                self._retire(job)
        self._fire_callbacks()

    # -- execution -----------------------------------------------------------

    def active_count(self) -> int:
        with self._lock:
            return len(self._jobs)

    def has_work(self) -> bool:
        """True while a job is admitted, a task is in flight, or a
        completed job's callback has yet to fire (a job cut off at
        admission completes without any task)."""
        with self._lock:
            return bool(self._jobs or self._inflight or self._completed)

    def step(self, timeout: float = 0.1) -> bool:
        """Advance the fleet a little; returns True on any progress.

        Inline mode executes exactly one ready node (so the driving
        loop stays responsive to admissions and cancellations between
        nodes); pool mode submits every ready node and waits up to
        ``timeout`` for completions.
        """
        progressed = self._advance(timeout)
        return bool(self._fire_callbacks()) or progressed

    def run_until_idle(self) -> List[FleetJob]:
        """Drive the fleet until no admitted job remains (tests and
        batch callers); returns the jobs completed meanwhile."""
        drained = self._fire_callbacks()
        while self.has_work():
            self._advance(0.1)
            drained.extend(self._fire_callbacks())
        return drained

    def _advance(self, timeout: float) -> bool:
        if self.jobs > 1 and not self._degraded:
            return self._step_pool(timeout)
        return self._step_inline()

    def shutdown(self) -> None:
        if self._owned_pool and self._pool_handle is not None:
            self._pool_handle.shutdown()

    def _fire_callbacks(self) -> List[FleetJob]:
        with self._lock:
            done, self._completed = self._completed, []
        for job in done:
            if job.on_complete is not None:
                job.on_complete(job)
        return done

    # -- inline execution ----------------------------------------------------

    def _step_inline(self) -> bool:
        with self._lock:
            task = self._next_task()
        if task is None:
            return False
        node, claim, payload = task
        # The task installs its own tracer; preserve whatever tracer
        # the embedding process had installed.
        prev = obs.get_tracer()
        try:
            shipped = run_task(self.cache, payload)
        finally:
            if prev is not None and obs.get_tracer() is not prev:
                obs.install(prev)
        with self._lock:
            self._absorb(node, claim, shipped)
        return True

    # -- pool execution ------------------------------------------------------

    def _step_pool(self, timeout: float) -> bool:
        try:
            pool = self._pool_handle.get()
            while True:
                with self._lock:
                    task = self._next_task()
                if task is None:
                    break
                node, claim, payload = task
                try:
                    future = pool.submit(_run_node_task, payload)
                except BrokenProcessPool:
                    with self._lock:
                        self._requeue(node)
                    raise
                size = len(pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL
                ))
                self._inflight[future] = (node, claim, size)
            if not self._inflight:
                return False
            done, _ = wait(
                list(self._inflight),
                timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                # Read the result first: a dead worker raises here, and
                # the node must still be in flight so the broken-pool
                # handler requeues it.
                shipped = future.result()
                node, claim, size = self._inflight.pop(future)
                with self._lock:
                    self._record_transport(claim, size, shipped)
                    self._absorb(node, claim, shipped)
            return bool(done)
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

    def _requeue(self, node: FleetNode) -> None:
        """A lost task's node goes back to READY, or leaves the index
        when no live claim is left to run it for."""
        if self._live_claim(node) is None:
            self._forget(node)
        else:
            self._push_node(node)

    def _handle_broken_pool(self) -> None:
        """Harvest what finished, requeue the lost tasks, and rebuild
        the pool up to :data:`MAX_POOL_REBUILDS` times before degrading
        to inline execution."""
        self._rebuilds += 1
        for future, (node, claim, size) in list(self._inflight.items()):
            harvested = False
            if future.done() and not future.cancelled():
                try:
                    shipped = future.result()
                except BaseException:
                    pass
                else:
                    with self._lock:
                        self._record_transport(claim, size, shipped)
                        self._absorb(node, claim, shipped)
                    harvested = True
            if not harvested:
                with self._lock:
                    self._requeue(node)
        self._inflight.clear()
        if self._rebuilds > MAX_POOL_REBUILDS:
            self._degraded = True
            if not self._owned_pool:
                # A shared pool must come back healthy for its next
                # lease; swap the broken executor out now.
                self._pool_handle.rebuild()
            return
        self._pool_handle.rebuild()
