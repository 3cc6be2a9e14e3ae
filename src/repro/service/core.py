"""The long-lived obfuscation job service (ISSUE 9 + ISSUE 10).

`ObfusCADe` evaluates counterfeit resistance by grid-searching process
settings against a protected model; the CLI runs one such evaluation
per invocation, paying worker-pool spawn, cold caches and model
protection every time.  :class:`ObfuscadeService` amortizes all three
across many requests from many tenants:

* one :class:`~repro.service.queue.JobQueue` admits and fairly orders
  requests (bounded depth, per-tenant weighted fair scheduling,
  structured 429s); every accepted submission is its own job, owned by
  its own tenant;
* a single dispatcher thread admits up to ``max_concurrent_jobs`` jobs
  into one :class:`~repro.pipeline.FleetScheduler` (ISSUE 10
  tentpole): the admitted jobs' execution graphs merge into one
  fleet-wide node set keyed by ``(stage, content digest)``, so
  overlapping jobs - even from different tenants, identical ones
  included - execute each shared node exactly once, with results fanned
  out to every consuming job and per-job accounting kept exact (each job's
  manifest + trace still describe precisely its own run, and its
  fingerprints are bit-identical to running alone);
* one warm :class:`~repro.pipeline.WorkerPool` plus one shared
  :class:`~repro.pipeline.DiskStageCache` directory serve every job,
  so repeat evaluations land on hot per-process caches and stored
  artifacts - and a cell the fleet has already finalized is answered
  at admission from its finalize memo, with no pool task at all;
* jobs carry priorities and optional deadlines (fleet scheduling
  order) and can be *cancelled*: a queued job leaves the queue; an
  admitted job releases the nodes no other job claims (shared nodes
  survive untouched).

The service is transport-agnostic; :mod:`repro.service.http` fronts it
with a versioned stdlib HTTP/JSON API (``/v1/``), and tests drive it
in-process.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.mesh.content_hash import model_digest
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import QualityGrade, assess_print
from repro.observability import MetricsRegistry, Tracer, export
from repro.observability import manifest as manifest_mod
from repro.pipeline import (
    ChainConfig,
    DiskStageCache,
    FleetJob,
    FleetScheduler,
    WorkerPool,
)
from repro.pipeline.chain import PLATE_MARGIN_MM
from repro.pipeline.resilience import NO_RETRY, RetryPolicy
from repro.service.jobs import (
    MACHINES,
    ORIENTATIONS,
    RESOLUTIONS,
    Job,
    JobSpec,
    JobState,
)
from repro.service.queue import JobQueue


class ObfuscadeService:
    """Multi-tenant job service over the staged process-chain engine.

    Parameters
    ----------
    cache_dir:
        Shared stage-cache directory (created if missing); every job's
        artifacts and the warm workers' reads go through it.
    out_dir:
        Where per-job manifests and traces land; defaults to
        ``<cache_dir>/runs``.
    jobs:
        Worker processes per fleet.  ``> 1`` keeps a persistent
        :class:`WorkerPool` alive across jobs; ``1`` executes fleet
        nodes inline in the dispatcher thread (same worker entry, same
        artifacts, still cache-warm).
    max_concurrent_jobs:
        How many jobs the fleet runs simultaneously.  ``1`` preserves
        the one-at-a-time dispatch of ISSUE 9; ``> 1`` merges the
        concurrent jobs' graphs so overlapping work executes once.
    queue_depth / max_tenant_queued / tenant_weights:
        Admission control and fairness, as for :class:`JobQueue`.
    retry / cell_timeout_s / keep_going:
        Per-node executor knobs, as for
        :class:`~repro.pipeline.FleetScheduler`.
    """

    def __init__(
        self,
        cache_dir,
        out_dir=None,
        jobs: int = 1,
        max_concurrent_jobs: int = 1,
        queue_depth: int = 16,
        max_tenant_queued: int = 0,
        tenant_weights: Optional[Mapping[str, float]] = None,
        retry: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        keep_going: bool = True,
    ):
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = (
            Path(out_dir) if out_dir is not None else self.cache_dir / "runs"
        )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs
        self.max_concurrent_jobs = max_concurrent_jobs
        self.retry = retry if retry is not None else NO_RETRY
        self.cell_timeout_s = cell_timeout_s
        self.keep_going = keep_going
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(
            max_depth=queue_depth,
            max_tenant_queued=max_tenant_queued,
            metrics=self.metrics,
            weights=tenant_weights,
        )
        self.pool: Optional[WorkerPool] = (
            WorkerPool(jobs) if jobs > 1 else None
        )
        self.fleet = FleetScheduler(
            DiskStageCache(self.cache_dir),
            jobs=jobs,
            retry=self.retry,
            cell_timeout_s=cell_timeout_s,
            keep_going=keep_going,
            pool=self.pool,
            metrics=self.metrics,
        )
        self.started_s = time.time()
        self._models: Dict[int, Any] = {}
        self._jobs: Dict[str, Job] = {}
        #: job_id -> (service job, protected model, start tick) for
        #: jobs currently admitted to the fleet.
        self._admitted: Dict[str, Tuple[Job, Any, float]] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._stop = threading.Event()
        self._gate = threading.Event()
        self._gate.set()
        self._thread: Optional[threading.Thread] = None

    # -- models --------------------------------------------------------------

    def _protected(self, seed: int):
        """The protected model for ``seed``, built once per service."""
        with self._lock:
            protected = self._models.get(seed)
        if protected is None:
            protected = Obfuscator(seed=seed).protect_tensile_bar()
            with self._lock:
                self._models.setdefault(seed, protected)
                protected = self._models[seed]
        return protected

    # -- submission / lookup -------------------------------------------------

    def submit(self, payload: Any, tenant: str = "anon") -> Job:
        """Validate + queue one request as a new job owned by ``tenant``.

        Raises :class:`~repro.service.jobs.JobValidationError` (bad
        request) or :class:`~repro.service.jobs.JobRejected`
        (backpressure); the HTTP layer maps them to 400/429.
        """
        job = Job(
            job_id=f"job-{next(self._seq):05d}",
            spec=JobSpec.from_request(payload),
            tenant=tenant,
        )
        self.queue.submit(job)
        with self._lock:
            self._jobs[job.job_id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> str:
        """Cancel a job: ``"cancelled"``, ``"not_found"`` or
        ``"not_cancellable"`` (already finished).

        A queued job leaves the queue immediately; an admitted job's
        unshared queued nodes are released by the fleet (shared and
        running nodes survive, so other jobs' results are not
        perturbed).  A job caught in the queue->fleet handoff is
        flagged and cancelled by the dispatcher before admission.
        """
        job = self.get(job_id)
        if job is None:
            return "not_found"
        if job.finished:
            return "not_cancellable"
        job.cancel_requested = True
        if self.queue.cancel(job):
            job.mark_cancelled()
            return "cancelled"
        if self.fleet.cancel(job_id):
            # The fleet's completion callback marked it cancelled.
            return "cancelled"
        # Handoff window: the dispatcher owns the job right now and
        # will honour ``cancel_requested`` before (or just after)
        # fleet admission.
        return "cancelled"

    # -- lifecycle -----------------------------------------------------------

    def start(self, paused: bool = False) -> None:
        """Start the dispatcher thread (``paused=True`` keeps it idle
        until :meth:`resume` - used by tests to pile up submissions
        deterministically)."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        if paused:
            self._gate.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="obfuscade-dispatch", daemon=True
        )
        self._thread.start()

    def pause(self) -> None:
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    def stop(self) -> None:
        """Stop dispatching and tear the warm pool down (idempotent).

        Jobs still admitted to the fleet are cancelled (anyone waiting
        on them unblocks with a terminal state rather than hanging)."""
        self._stop.set()
        self._gate.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.fleet.abort_all()
        self.fleet.shutdown()
        if self.pool is not None:
            self.pool.shutdown()

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            admitting = self._gate.is_set()
            if admitting:
                # Top the fleet up to capacity without blocking.
                while self.fleet.active_count() < self.max_concurrent_jobs:
                    job = self.queue.take(timeout=0)
                    if job is None:
                        break
                    self._admit(job)
            if self.fleet.has_work():
                self.fleet.step(timeout=0.1)
            elif admitting:
                # Idle: block on the queue so submissions wake us.
                job = self.queue.take(timeout=0.1)
                if job is not None:
                    self._admit(job)
            else:
                self._gate.wait(timeout=0.1)

    # -- execution -----------------------------------------------------------

    def _admit(self, job: Job) -> None:
        """Plan one queued job into the fleet."""
        if job.cancel_requested:
            job.mark_cancelled()
            self.metrics.inc("service.jobs_cancelled")
            self.queue.finish()
            return
        started = time.perf_counter()
        try:
            protected = self._protected(job.spec.seed)
            config = ChainConfig(
                machine=MACHINES[job.spec.machine],
                settings=None,
                raster_cell_mm=None,
                plate_margin_mm=PLATE_MARGIN_MM,
            )
            grid = [
                (RESOLUTIONS[r], ORIENTATIONS[o])
                for r in job.spec.resolutions
                for o in job.spec.orientations
            ]
            fleet_job = FleetJob(
                job.job_id,
                protected.model,
                grid,
                config,
                assess=assess_print,
                priority=job.spec.priority,
                deadline_s=job.spec.deadline_s,
                on_complete=self._on_fleet_complete,
            )
            with self._lock:
                self._admitted[job.job_id] = (job, protected, started)
            self.fleet.admit(fleet_job)
            if job.cancel_requested:
                # cancel() raced the admission; it could not reach the
                # fleet then, so honour it now.
                self.fleet.cancel(job.job_id)
        except Exception as exc:  # noqa: BLE001 - the job, not the service, fails
            with self._lock:
                self._admitted.pop(job.job_id, None)
            job.mark_failed({
                "type": type(exc).__name__,
                "message": str(exc),
            })
            self.metrics.inc("service.jobs_failed")
            self.queue.finish()

    def _on_fleet_complete(self, fleet_job: FleetJob) -> None:
        """Fleet completion callback: publish one job's terminal state."""
        with self._lock:
            entry = self._admitted.pop(fleet_job.job_id, None)
        if entry is None:
            return
        job, protected, started = entry
        try:
            # A cancel the fleet could not honour (the job completed
            # at admission, or just before its callback fired) was
            # still answered "cancelled"; keep that answer true.
            if (fleet_job.cancelled or fleet_job.report is None
                    or job.cancel_requested):
                job.mark_cancelled()
                self.metrics.inc("service.jobs_cancelled")
                return
            report = fleet_job.report
            # Per-job tracer feeding the service-lifetime metrics
            # registry: the adopted spans are exactly this job's
            # attributed work, so its manifest agrees with its trace.
            tracer = Tracer(metrics=self.metrics)
            tracer.adopt(fleet_job.spans)
            spans = [s.to_dict() for s in tracer.drain()]
            trace_path = self.out_dir / f"{job.job_id}.trace.jsonl"
            export.write_jsonl(spans, trace_path)
            manifest_path = self._write_manifest(
                job, fleet_job, protected, report, spans, trace_path
            )
            grid_objs = {
                (r.name, o.value): (r, o) for r, o in fleet_job.grid
            }
            summary = []
            key_only = True
            for cell in report.cells:
                resolution, orientation = grid_objs[
                    (cell.resolution, cell.orientation)
                ]
                matches = protected.key.matches(resolution, orientation)
                grade = cell.assessment.grade
                summary.append([
                    cell.resolution, cell.orientation,
                    grade.value, cell.assessment.score, matches,
                ])
                if grade is QualityGrade.GENUINE and not matches:
                    key_only = False
            job.mark_done({
                "fingerprints": {
                    f"{c.resolution}/{c.orientation}": c.fingerprint
                    for c in report.cells
                },
                "summary": summary,
                "key_only_success": key_only,
                "cells_ok": len(report.cells),
                "cells_failed": len(report.errors),
                "manifest": str(manifest_path),
                "trace": str(trace_path),
                "fleet": {
                    "cross_job_deduped": fleet_job.counters.cross_job_deduped,
                    "fanout_results": fleet_job.counters.fanout_results,
                    "cancelled_nodes": fleet_job.counters.cancelled_nodes,
                    "cutoff_cells": fleet_job.counters.cutoff_cells,
                },
            })
            self.metrics.inc("service.jobs_done")
        except Exception as exc:  # noqa: BLE001 - the job, not the service, fails
            job.mark_failed({
                "type": type(exc).__name__,
                "message": str(exc),
            })
            self.metrics.inc("service.jobs_failed")
        finally:
            self.metrics.observe(
                "service.job_s", time.perf_counter() - started
            )
            self.queue.finish()

    def _write_manifest(self, job, fleet_job, protected, report, spans,
                        trace_path):
        config = {
            "command": "serve",
            "seed": job.spec.seed,
            "resolutions": list(job.spec.resolutions),
            "orientations": list(job.spec.orientations),
            "machine": job.spec.machine,
            "jobs": self.jobs,
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "cache_dir": str(self.cache_dir),
            "dedupe": True,
        }
        doc = manifest_mod.sweep_manifest(
            report,
            model_name=protected.model.name,
            model_digest=model_digest(protected.model),
            config=config,
            trace_path=str(trace_path),
            trace_spans=len(spans),
        )
        # Service provenance rides along as an extra top-level block
        # (the schema validator allows extras): which job produced this
        # run, for whom, at what urgency, and how much cross-job
        # sharing it benefited from.
        doc["service"] = {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "priority": job.spec.priority,
            "deadline_s": job.spec.deadline_s,
            "queue": self.queue.snapshot(),
            "fleet": self._fleet_snapshot(),
            "pool": (
                {
                    "max_workers": self.pool.max_workers,
                    "rebuilds": self.pool.rebuilds,
                    "leases": self.pool.leases,
                }
                if self.pool is not None
                else None
            ),
        }
        path = self.out_dir / f"{job.job_id}.manifest.json"
        manifest_mod.write_manifest(doc, path)
        return path

    # -- introspection -------------------------------------------------------

    def _fleet_snapshot(self) -> Dict[str, Any]:
        return {
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "active": self.fleet.active_count(),
            "cross_job_deduped": self.fleet.cross_job_deduped,
            "fanout_results": self.fleet.fanout_results,
            "cancelled_nodes": self.fleet.cancelled_nodes,
            "cutoff_cells": self.fleet.cutoff_cells,
        }

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            known = len(self._jobs)
            running = sum(
                1 for j in self._jobs.values()
                if j.state is JobState.RUNNING
            )
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_s,
            "dispatcher": (
                "stopped" if self._thread is None
                else "paused" if not self._gate.is_set()
                else "running"
            ),
            "jobs": {"known": known, "running": running},
            "queue": self.queue.snapshot(),
            "fleet": self._fleet_snapshot(),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        doc = self.metrics.to_dict()
        doc["queue"] = self.queue.snapshot()
        doc["fleet"] = self._fleet_snapshot()
        if self.pool is not None:
            doc["pool"] = {
                "max_workers": self.pool.max_workers,
                "rebuilds": self.pool.rebuilds,
                "leases": self.pool.leases,
            }
        return doc
