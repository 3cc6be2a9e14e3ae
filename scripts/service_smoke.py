#!/usr/bin/env python
"""End-to-end smoke test of the fleet-scheduled obfuscation service.

Drives a real :class:`ObfuscadeService` through the v1 HTTP API with
the :class:`repro.client.ServiceClient` SDK, the way CI exercises the
other subsystems (ISSUE 9 + ISSUE 10 acceptance):

* N identical submissions sent concurrently from N tenants must
  become N jobs, each owned by its tenant, each done with the
  ``--baseline`` fingerprints; they share work only through the fleet,
  so together they execute no more stage nodes than the baseline run
  (summed ``scheduler.totals.executed``), and at least
  N - ``--max-concurrent-jobs`` of them are cut off at admission
  (``cutoff_cells`` == the grid size);
* mixed-priority distinct jobs ride alongside; their grids overlap the
  shared one, and the fleet admits jobs concurrently
  (``--max-concurrent-jobs``), so the cross-job dedupe counters must
  prove shared nodes executed once (``cross_job_deduped >= 1``) while
  every overlapping cell still agrees bit-for-bit;
* one queued job must be cancelled through ``DELETE /v1/jobs/{id}``
  without perturbing any surviving job's results;
* one more distinct submission beyond the queue depth must get a
  structured 429 envelope, never a hang;
* the shared grid resubmitted after its jobs finished must be answered
  at fleet admission from the finalize memo (early cutoff): one cut-off
  cell, zero pool tasks, the same fingerprints;
* ``check_run_artifacts.py`` must pass on EVERY completed job's
  manifest + trace (per-job accounting stays exact under the fleet);
* the warm worker pool must survive every job without a rebuild;
* the server must read more requests than it accepted connections
  (``http.requests > http.connections``): each client thread keeps its
  connection alive across calls.

The manifest and trace of the identical job that executed the shared
nodes are copied to stable names (``shared.manifest.json`` /
``shared.trace.jsonl`` under ``--out``) so a follow-up
``check_run_artifacts.py`` step can schema-check them.

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

#: Every "identical" submission sends exactly this.
SHARED = {"seed": 7, "resolutions": ["coarse"], "orientations": ["x-y"]}
SHARED_CELLS = len(SHARED["resolutions"]) * len(SHARED["orientations"])
#: Distinct jobs whose grids overlap the shared one (and each other),
#: at different priorities, so the fleet must dedupe their shared nodes
#: across job boundaries.
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
        # Room for every identical, distinct and doomed job, so the
        # overflow submission is the first one refused.
        queue_depth=args.identical + len(DISTINCT) + 1,
    )
    server = ServiceServer(service, port=0)
    server.start()
    # Paused dispatcher: every submission lands while nothing runs, so
    # the queued-cancel and the overflow 429 are deterministic.
    service.start(paused=True)
    try:
        tenants = [f"tenant-{i}" for i in range(args.identical)]
        identical_ids = [None] * args.identical
        def submit(i):
            client = ServiceClient(server.url, tenant=tenants[i])
            identical_ids[i] = client.submit(**SHARED).job_id
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(args.identical)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if len(set(identical_ids)) != args.identical:
            problems.append(
                f"{args.identical} identical submissions got "
                f"{len(set(identical_ids))} distinct job ids (want one "
                f"job each)"
            )

        distinct_ids = []
        for i, payload in enumerate(DISTINCT):
            client = ServiceClient(server.url, tenant=f"distinct-{i}")
            distinct_ids.append(client.submit(**payload).job_id)

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
        identical_views = [waiter.wait_result(jid, timeout_s=900)
                           for jid in identical_ids]
        distinct_views = [waiter.wait_result(jid, timeout_s=900)
                          for jid in distinct_ids]

        labelled = [
            (f"identical-{i}", v) for i, v in enumerate(identical_views)
        ] + [(f"distinct-{i}", v) for i, v in enumerate(distinct_views)]
        for label, view in labelled:
            if view.state != "done":
                problems.append(f"{label} job ended {view.state}: "
                                f"{view.error}")
        for view, tenant in zip(identical_views, tenants):
            if view.tenant != tenant:
                problems.append(
                    f"{view.job_id} belongs to {view.tenant!r}, "
                    f"want its submitter {tenant!r}"
                )
        if any(v.state != "done" for _, v in labelled):
            return _report(problems)

        baseline = (manifest_mod.read_manifest(args.baseline)
                    if args.baseline else None)
        shared_fp = identical_views[0].result["fingerprints"]
        for view in identical_views:
            fp = view.result["fingerprints"]
            if fp != shared_fp:
                problems.append(
                    f"identical job {view.job_id} fingerprints {fp} != "
                    f"{identical_views[0].job_id}'s {shared_fp}"
                )
            if baseline and baseline.get("fingerprints") != fp:
                problems.append(
                    f"identical job {view.job_id} fingerprints diverge "
                    f"from the serial CLI baseline: {fp} != "
                    f"{baseline.get('fingerprints')}"
                )

        # Duplicates share work only through the fleet: the N jobs
        # together execute no more nodes than one serial run, and all
        # but the first admission wave are cut off at admission.
        identical_docs = [manifest_mod.read_manifest(v.result["manifest"])
                          for v in identical_views]
        executed = [doc["scheduler"]["totals"]["executed"]
                    for doc in identical_docs]
        if baseline:
            limit = baseline["scheduler"]["totals"]["executed"]
            if sum(executed) > limit:
                problems.append(
                    f"{args.identical} identical jobs executed "
                    f"{sum(executed)} nodes (per job {executed}), more "
                    f"than the baseline's {limit}"
                )
        cut_off = sum(
            1 for v in identical_views
            if v.result["fleet"]["cutoff_cells"] == SHARED_CELLS
        )
        want_cut_off = args.identical - args.max_concurrent_jobs
        if cut_off < want_cut_off:
            problems.append(
                f"{cut_off} identical jobs were cut off at admission "
                f"(want >= {want_cut_off})"
            )

        merged_fp = dict(distinct_views[0].result["fingerprints"])
        merged_fp.update(shared_fp)
        both = distinct_views[1].result["fingerprints"]
        if both != merged_fp:
            problems.append(
                "distinct jobs disagree with the shared grid on "
                f"overlapping cells: {both} != {merged_fp}"
            )

        # Early cutoff: the shared grid, resubmitted once its jobs are
        # finished, resolves at fleet admission from the finalize memo
        # - no node claim, no task.
        resubmitted = ServiceClient(server.url, tenant="resubmit").submit(
            **SHARED
        )
        resub_view = waiter.wait_result(resubmitted.job_id, timeout_s=900)
        if resub_view.state != "done":
            problems.append(f"resubmitted job ended {resub_view.state}: "
                            f"{resub_view.error}")
        else:
            cutoff = resub_view.result["fleet"].get("cutoff_cells")
            if cutoff != SHARED_CELLS:
                problems.append(
                    f"resubmitted job cut off {cutoff} cells "
                    f"(want {SHARED_CELLS})"
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
                    f"resubmitted job fingerprints {resub_fp} != the "
                    f"identical jobs' {shared_fp}"
                )

        # Concurrently admitted overlapping jobs (identical ones
        # included) must have deduped at least one node across job
        # boundaries.
        cross_job = sum(
            v.result["fleet"]["cross_job_deduped"]
            for v in identical_views + distinct_views
        )
        if cross_job < 1:
            problems.append(
                "no cross-job dedupe happened (cross_job_deduped == 0 "
                "on every job; overlapping concurrent jobs should share)"
            )

        metrics = waiter.metrics()
        counters = metrics.get("counters", {})
        expect = {
            "service.jobs_submitted": args.identical + len(DISTINCT) + 2,
            "service.jobs_rejected": 1,
            "service.jobs_done": args.identical + len(DISTINCT) + 1,
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
        # Each client thread keeps one connection for all its calls, so
        # the server reads more requests than it accepts connections.
        requests = counters.get("http.requests", 0)
        connections = counters.get("http.connections", 0)
        if requests <= connections:
            problems.append(
                f"{requests} HTTP requests over {connections} connections: "
                f"the transport is not keeping connections alive"
            )

        for view, tenant, doc in zip(identical_views, tenants,
                                     identical_docs):
            problems.extend(
                f"{view.job_id} manifest schema: {p}"
                for p in manifest_mod.validate_manifest(doc)
            )
            recorded = doc.get("service", {}).get("tenant")
            if recorded != tenant:
                problems.append(
                    f"{view.job_id} manifest records tenant "
                    f"{recorded!r}, want {tenant!r}"
                )

        # Per-job accounting must stay exact under the fleet: the
        # artifact checker passes on EVERY completed job, the cut-off
        # ones included.
        for label, view in labelled + [("resubmitted", resub_view)]:
            if view.state != "done":
                continue
            found = check_run_artifacts.check(
                view.result["trace"], view.result["manifest"],
                jobs=args.jobs,
            )
            problems.extend(f"{label} artifacts: {p}" for p in found)

        # Stable copies for the follow-up check_run_artifacts step: the
        # identical job that executed the shared nodes.
        shared_view = identical_views[executed.index(max(executed))]
        shutil.copy(shared_view.result["manifest"],
                    out / "shared.manifest.json")
        shutil.copy(shared_view.result["trace"],
                    out / "shared.trace.jsonl")
    finally:
        server.stop()
        service.stop()

    if problems:
        return _report(problems)
    print(
        f"SMOKE OK: {args.identical} identical submissions -> "
        f"{args.identical} jobs executing {sum(executed)} nodes in all "
        f"({cut_off} cut off at admission), {len(DISTINCT)} overlapping "
        f"jobs, cross-job deduped {cross_job} nodes, 1 queued job "
        f"cancelled, overflow got a structured 429, the resubmitted grid "
        f"was cut off at admission with 0 tasks, artifacts exact on "
        f"every job"
    )
    return 0


def _report(problems) -> int:
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
