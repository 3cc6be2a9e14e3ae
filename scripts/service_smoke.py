#!/usr/bin/env python
"""End-to-end smoke test of the fleet-scheduled obfuscation service.

Drives a real :class:`ObfuscadeService` through the v1 HTTP API with
the :class:`repro.client.ServiceClient` SDK, the way CI exercises the
other subsystems (ISSUE 9 + ISSUE 10 acceptance):

* N identical jobs submitted concurrently from distinct tenants must
  coalesce onto ONE computation (one admission, N-1 joins, one run
  manifest), while mixed-priority distinct jobs ride alongside;
* the distinct jobs' grids overlap the shared one, and the fleet
  admits them concurrently (``--max-concurrent-jobs``), so the
  cross-job dedupe counters must prove shared nodes executed once
  (``cross_job_deduped >= 1``) while every overlapping cell still
  agrees bit-for-bit;
* one queued job must be cancelled through ``DELETE /v1/jobs/{id}``
  without perturbing any surviving job's results;
* one more distinct submission beyond the queue depth must get a
  structured 429 envelope, never a hang;
* the shared job's fingerprints must be bit-identical to a serial CLI
  sweep of the same grid (``--baseline``);
* the shared grid resubmitted after its job finished must be answered
  at fleet admission from the finalize memo (early cutoff): one cut-off
  cell, zero pool tasks, the same fingerprints;
* ``check_run_artifacts.py`` must pass on EVERY completed job's
  manifest + trace (per-job accounting stays exact under the fleet);
* the warm worker pool must survive every job without a rebuild.

The shared job's manifest and trace are copied to stable names
(``shared.manifest.json`` / ``shared.trace.jsonl`` under ``--out``) so
a follow-up ``check_run_artifacts.py`` step can schema-check them.

Usage:
    PYTHONPATH=src python scripts/service_smoke.py \
        --out /tmp/service-smoke [--baseline serial-manifest.json] \
        [--jobs 2] [--identical 8] [--max-concurrent-jobs 2]
"""

import argparse
import shutil
import sys
import threading
from pathlib import Path

from repro.client import ServiceClient, ServiceClientError
from repro.observability import manifest as manifest_mod
from repro.service import ObfuscadeService, ServiceServer

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_run_artifacts  # noqa: E402 - sibling script

#: The coalescing target: every "identical" submission sends exactly this.
SHARED = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}
#: Distinct jobs that must NOT coalesce with the shared one.  Their
#: grids overlap it (and each other), at different priorities, so the
#: fleet must dedupe their shared nodes across job boundaries.
DISTINCT = [
    {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-z"],
     "priority": 1},
    {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y", "x-z"],
     "priority": 7},
]
#: Submitted, then DELETEd while still queued: must cancel cleanly.
DOOMED = {"seed": 7, "resolutions": ["fine"], "orientations": ["x-z"],
          "priority": 9}
#: Submitted once the queue is full: must be refused, not queued.
OVERFLOW = {"seed": 7, "resolutions": ["fine"], "orientations": ["x-y"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="working directory (cache + runs + copies)")
    parser.add_argument("--baseline", default=None,
                        help="serial CLI sweep manifest of the SHARED grid")
    parser.add_argument("--jobs", type=int, default=2,
                        help="warm worker pool size")
    parser.add_argument("--identical", type=int, default=8,
                        help="concurrent identical submissions")
    parser.add_argument("--max-concurrent-jobs", type=int, default=2,
                        help="fleet admission width")
    args = parser.parse_args(argv)

    out = Path(args.out)
    problems = []
    service = ObfuscadeService(
        cache_dir=out / "cache",
        out_dir=out / "runs",
        jobs=args.jobs,
        max_concurrent_jobs=args.max_concurrent_jobs,
        queue_depth=2 + len(DISTINCT),
    )
    server = ServiceServer(service, port=0)
    server.start()
    # Paused dispatcher: every submission lands while nothing runs, so
    # the join/admit split and the queued-cancel are deterministic.
    service.start(paused=True)
    try:
        views = [None] * args.identical
        def submit(i):
            client = ServiceClient(server.url, tenant=f"tenant-{i}")
            view = client.submit(**SHARED)
            views[i] = (view, client.last_submit_joined)
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(args.identical)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        admissions = [v for v, joined in views if not joined]
        joins = [v for v, joined in views if joined]
        if len(admissions) != 1 or len(joins) != args.identical - 1:
            problems.append(
                f"{args.identical} identical submissions produced "
                f"{len(admissions)} admissions + {len(joins)} joins "
                f"(want 1 + {args.identical - 1})"
            )
        shared_id = admissions[0].job_id if admissions else None
        if any(v.job_id != shared_id for v in joins):
            problems.append("joined submissions did not all share one job id")

        distinct_ids = []
        for i, payload in enumerate(DISTINCT):
            client = ServiceClient(server.url, tenant=f"distinct-{i}")
            view = client.submit(**payload)
            if client.last_submit_joined:
                problems.append(
                    f"distinct job {i} joined {view.job_id} "
                    f"(want a fresh admission)"
                )
            distinct_ids.append(view.job_id)

        doomed_client = ServiceClient(server.url, tenant="doomed")
        doomed = doomed_client.submit(**DOOMED)

        try:
            ServiceClient(server.url, tenant="straggler").submit(**OVERFLOW)
            problems.append("overflow submission was admitted (want 429)")
        except ServiceClientError as exc:
            if exc.status != 429 or exc.envelope.code != "queue_full":
                problems.append(
                    f"overflow got [{exc.status}] {exc.envelope.code} "
                    f"(want structured 429 queue_full)"
                )

        # DELETE while queued: the job must reach a terminal cancelled
        # state and never consume fleet work.
        cancelled = doomed_client.cancel(doomed.job_id)
        if cancelled.state != "cancelled":
            problems.append(
                f"DELETE left doomed job {cancelled.state!r} "
                f"(want cancelled)"
            )
        try:
            doomed_client.cancel(doomed.job_id)
            problems.append("second DELETE succeeded (want 409)")
        except ServiceClientError as exc:
            if exc.status != 409 or exc.envelope.code != "not_cancellable":
                problems.append(
                    f"second DELETE got [{exc.status}] {exc.envelope.code} "
                    f"(want 409 not_cancellable)"
                )

        service.resume()
        waiter = ServiceClient(server.url, tenant="waiter")
        shared_view = waiter.wait_result(shared_id, timeout_s=900)
        distinct_views = [waiter.wait_result(jid, timeout_s=900)
                          for jid in distinct_ids]

        for label, view in [("shared", shared_view)] + [
            (f"distinct-{i}", v) for i, v in enumerate(distinct_views)
        ]:
            if view.state != "done":
                problems.append(f"{label} job ended {view.state}: "
                                f"{view.error}")

        shared_fp = shared_view.result["fingerprints"]
        merged_fp = dict(distinct_views[0].result["fingerprints"])
        merged_fp.update(shared_fp)
        both = distinct_views[1].result["fingerprints"]
        if both != merged_fp:
            problems.append(
                "distinct jobs disagree with the shared job on "
                f"overlapping cells: {both} != {merged_fp}"
            )

        if args.baseline:
            baseline = manifest_mod.read_manifest(args.baseline)
            if baseline.get("fingerprints") != shared_fp:
                problems.append(
                    "shared job fingerprints diverge from the serial CLI "
                    f"baseline: {shared_fp} != "
                    f"{baseline.get('fingerprints')}"
                )

        # Early cutoff: the shared grid, resubmitted once its job is
        # finished (finished jobs are not joinable), resolves at fleet
        # admission from the finalize memo - no node claim, no task.
        resubmitter = ServiceClient(server.url, tenant="resubmit")
        resubmitted = resubmitter.submit(**SHARED)
        if resubmitter.last_submit_joined:
            problems.append(
                f"resubmission joined {resubmitted.job_id} (want a fresh "
                f"admission after the shared job finished)"
            )
        resub_view = waiter.wait_result(resubmitted.job_id, timeout_s=900)
        if resub_view.state != "done":
            problems.append(f"resubmitted job ended {resub_view.state}: "
                            f"{resub_view.error}")
        else:
            cutoff = resub_view.result["fleet"].get("cutoff_cells")
            if cutoff != 1:
                problems.append(
                    f"resubmitted job cut off {cutoff} cells (want 1)"
                )
            resub_doc = manifest_mod.read_manifest(
                resub_view.result["manifest"]
            )
            tasks = (resub_doc.get("transport") or {}).get("tasks", 0)
            if tasks != 0:
                problems.append(
                    f"resubmitted job shipped {tasks} pool tasks (want 0)"
                )
            resub_fp = resub_view.result["fingerprints"]
            if resub_fp != shared_fp:
                problems.append(
                    f"resubmitted job fingerprints {resub_fp} != shared "
                    f"job's {shared_fp}"
                )
            if args.baseline and baseline.get("fingerprints") != resub_fp:
                problems.append(
                    "resubmitted job fingerprints diverge from the serial "
                    f"CLI baseline: {resub_fp} != "
                    f"{baseline.get('fingerprints')}"
                )

        # The tentpole gate: concurrently admitted overlapping jobs
        # must have deduped at least one node across job boundaries.
        cross_job = sum(
            v.result["fleet"]["cross_job_deduped"]
            for v in [shared_view] + distinct_views
        )
        if cross_job < 1:
            problems.append(
                "no cross-job dedupe happened (cross_job_deduped == 0 "
                "on every job; overlapping concurrent jobs should share)"
            )

        metrics = waiter.metrics()
        counters = metrics.get("counters", {})
        expect = {
            "service.coalesced_jobs": 1,
            "service.joined_waiters": args.identical - 1,
            "service.jobs_submitted": 3 + len(DISTINCT),
            "service.jobs_rejected": 1,
            "service.jobs_done": 2 + len(DISTINCT),
            "service.jobs_cancelled": 1,
        }
        for key, want in expect.items():
            if counters.get(key) != want:
                problems.append(
                    f"counter {key} is {counters.get(key)}, want {want}"
                )
        if metrics.get("fleet", {}).get("cross_job_deduped", 0) < 1:
            problems.append(
                f"service fleet counters missed the cross-job dedupe: "
                f"{metrics.get('fleet')}"
            )
        pool = metrics.get("pool")
        if args.jobs > 1 and (not pool or pool["rebuilds"] != 0):
            problems.append(f"warm pool unhealthy: {pool}")

        manifest_doc = manifest_mod.read_manifest(
            shared_view.result["manifest"]
        )
        schema_problems = manifest_mod.validate_manifest(manifest_doc)
        problems.extend(
            f"shared manifest schema: {p}" for p in schema_problems
        )
        waiters = manifest_doc.get("service", {}).get("waiters")
        if waiters != args.identical:
            problems.append(
                f"shared manifest records waiters={waiters}, "
                f"want {args.identical}"
            )

        # Per-job accounting must stay exact under the fleet: the
        # artifact checker passes on EVERY completed job, the cut-off
        # resubmission included.
        for label, view in [("shared", shared_view),
                            ("resubmitted", resub_view)] + [
            (f"distinct-{i}", v) for i, v in enumerate(distinct_views)
        ]:
            if view.state != "done":
                continue
            found = check_run_artifacts.check(
                view.result["trace"], view.result["manifest"],
                jobs=args.jobs,
            )
            problems.extend(f"{label} artifacts: {p}" for p in found)

        # Stable copies for the follow-up check_run_artifacts step.
        shutil.copy(shared_view.result["manifest"],
                    out / "shared.manifest.json")
        shutil.copy(shared_view.result["trace"],
                    out / "shared.trace.jsonl")
    finally:
        server.stop()
        service.stop()

    if problems:
        for p in problems:
            print(f"SMOKE FAIL: {p}")
        return 1
    print(
        f"SMOKE OK: {args.identical} identical submissions -> 1 run "
        f"({args.identical - 1} joins), {len(DISTINCT)} overlapping jobs "
        f"cross-job deduped {cross_job} nodes, 1 queued job cancelled, "
        f"overflow got a structured 429, the resubmitted grid was cut off "
        f"at admission with 0 tasks, artifacts exact on every job"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
