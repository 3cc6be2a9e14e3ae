"""Bounded, tenant-fair job queue.

Every accepted submission is its own job, tagged with its own tenant;
identical jobs share work only downstream, in the fleet (cross-job
node dedup while both run, early cutoff once one has finished).  What
the queue decides, under one lock:

* **Backpressure** - the queue holds at most ``max_depth`` queued jobs
  in total and (optionally) ``max_tenant_queued`` per tenant; beyond
  either, :class:`~repro.service.jobs.JobRejected` carries a
  structured refusal the HTTP layer maps to 429.
* **Fairness** - :meth:`take` serves tenants by *stride scheduling*:
  each tenant accrues virtual time ``1/weight`` per job served, and
  the backlogged tenant with the least virtual time goes next (ties
  break in rotation order).  With equal weights this degenerates to
  round-robin; unequal ``weights`` give a tenant a proportionally
  larger share without ever starving the others.  Within one tenant's
  backlog, jobs are served by priority (lower first), FIFO among
  equals.
* **Cancellation** - :meth:`cancel` removes a still-queued job in
  O(backlog); running jobs are the dispatcher's to cancel.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Mapping, Optional

from repro.service.jobs import Job, JobRejected, JobState


class JobQueue:
    """The service's admission control and dispatch order."""

    def __init__(
        self,
        max_depth: int = 16,
        max_tenant_queued: int = 0,
        metrics=None,
        weights: Optional[Mapping[str, float]] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if max_tenant_queued < 0:
            raise ValueError("max_tenant_queued must be >= 0 (0 = unlimited)")
        if weights:
            for tenant, weight in weights.items():
                if not weight > 0:
                    raise ValueError(
                        f"tenant weight must be > 0 (got {tenant}={weight})"
                    )
        self.max_depth = max_depth
        self.max_tenant_queued = max_tenant_queued
        self.metrics = metrics
        #: tenant -> relative service share (absent tenants weigh 1.0).
        self.weights: Dict[str, float] = dict(weights or {})
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        #: tenant -> queued jobs; OrderedDict order is the stride
        #: tie-break rotation.
        self._pending: "OrderedDict[str, Deque[Job]]" = OrderedDict()
        #: Stride state: virtual time accrued per tenant (persists
        #: across idle periods, clamped forward on re-entry so a
        #: long-idle tenant cannot monopolise the queue with credit).
        self._vt: Dict[str, float] = {}
        #: Jobs served per tenant over the queue's lifetime.
        self.served: Dict[str, int] = {}
        # Lifetime counters (mirrored into ``metrics`` when given).
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.cancelled = 0

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    # -- admission -----------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Queue ``job`` and return it.

        Raises :class:`JobRejected` when the queue (or the tenant's
        slice of it) is full.
        """
        with self._has_work:
            depth = sum(len(q) for q in self._pending.values())
            if depth >= self.max_depth:
                self.rejected += 1
                self._inc("service.jobs_rejected")
                raise JobRejected(
                    "queue_full",
                    f"queue is full ({depth}/{self.max_depth} jobs queued); "
                    f"retry later",
                    queue_depth=depth,
                    max_depth=self.max_depth,
                )
            mine = self._pending.get(job.tenant)
            if (
                self.max_tenant_queued
                and mine is not None
                and len(mine) >= self.max_tenant_queued
            ):
                self.rejected += 1
                self._inc("service.jobs_rejected")
                raise JobRejected(
                    "tenant_quota",
                    f"tenant {job.tenant!r} already has {len(mine)} jobs "
                    f"queued (limit {self.max_tenant_queued})",
                    tenant=job.tenant,
                    tenant_queued=len(mine),
                    max_tenant_queued=self.max_tenant_queued,
                )
            if mine is None:
                mine = self._pending[job.tenant] = deque()
                # A tenant re-entering after idle starts at the
                # current virtual-time floor: past inactivity earns no
                # burst credit against the backlogged tenants.
                floor = min(
                    (
                        self._vt.get(t, 0.0)
                        for t, q in self._pending.items()
                        if q and t != job.tenant
                    ),
                    default=0.0,
                )
                self._vt[job.tenant] = max(
                    self._vt.get(job.tenant, 0.0), floor
                )
            job.state = JobState.QUEUED
            mine.append(job)
            self.submitted += 1
            self._inc("service.jobs_submitted")
            self._has_work.notify()
            return job

    # -- dispatch ------------------------------------------------------------

    def _pick_locked(self) -> Optional[Job]:
        """The stride scheduler: least-virtual-time backlogged tenant,
        rotation order among ties; highest-priority job of that tenant
        (FIFO among equal priorities)."""
        chosen = None
        for tenant in list(self._pending):
            backlog = self._pending[tenant]
            if not backlog:
                del self._pending[tenant]
                continue
            vt = self._vt.get(tenant, 0.0)
            if chosen is None or vt < chosen[0]:
                chosen = (vt, tenant)
        if chosen is None:
            return None
        _, tenant = chosen
        backlog = self._pending[tenant]
        best = min(
            range(len(backlog)),
            key=lambda i: (backlog[i].spec.priority, i),
        )
        backlog.rotate(-best)
        job = backlog.popleft()
        backlog.rotate(best)
        self._vt[tenant] = self._vt.get(tenant, 0.0) + 1.0 / self._weight(
            tenant
        )
        self.served[tenant] = self.served.get(tenant, 0) + 1
        self._inc(f"service.tenant_served.{tenant}")
        # Served tenants rotate to the back so equal-vt ties keep
        # round-robin order.
        self._pending.move_to_end(tenant)
        if not backlog:
            del self._pending[tenant]
        job.state = JobState.RUNNING
        job.started_s = time.time()
        return job

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job in weighted-fair tenant order; marks it RUNNING.

        Blocks up to ``timeout`` seconds (forever when ``None``;
        ``0`` polls without blocking); returns ``None`` on timeout.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._has_work:
            while True:
                job = self._pick_locked()
                if job is not None:
                    return job
                if deadline is None:
                    self._has_work.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._has_work.wait(remaining)

    def cancel(self, job: Job) -> bool:
        """Remove a still-queued ``job``; True when it was dequeued.

        Running or finished jobs return False - cancelling those is
        the dispatcher's business (the fleet releases their nodes).
        """
        with self._lock:
            backlog = self._pending.get(job.tenant)
            if backlog is None or job not in backlog:
                return False
            backlog.remove(job)
            if not backlog:
                del self._pending[job.tenant]
            self.cancelled += 1
            self._inc("service.jobs_cancelled")
            return True

    def finish(self) -> None:
        """Count one job as completed (call once its terminal state is
        set)."""
        with self._lock:
            self.completed += 1

    # -- introspection -------------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._pending.values())

    def snapshot(self) -> Dict[str, Any]:
        """Counters + per-tenant backlog for healthz/metrics/manifests."""
        with self._lock:
            return {
                "queued": sum(len(q) for q in self._pending.values()),
                "max_depth": self.max_depth,
                "max_tenant_queued": self.max_tenant_queued,
                "tenants": {t: len(q) for t, q in self._pending.items() if q},
                "weights": dict(self.weights),
                "served": dict(self.served),
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "cancelled": self.cancelled,
            }
