"""The ``service-warm`` workload: a closed loop against ``serve``.

Set-up starts ``python -m repro.cli serve --jobs 2
--max-concurrent-jobs 2`` on a fresh cache directory and pre-warms the
3 x 3 FDM grid, so no kernel runs while measuring.  Measurement has two
phases, both through :class:`repro.client.ServiceClient`:

* warm re-sweep: one tenant re-submits the full grid, one job at a
  time (``warm_cells_per_s``);
* closed loop: two client threads, one tenant each, each sending a
  fixed seeded request sequence and waiting for every result before
  sending again.  The sequence mixes grid subsets of 1 to 9 cells,
  exact duplicates of the other client's job (sent together, so one
  coalesces onto the other), priorities, and cancels.  Cancelled
  requests are kept out of the latency samples.

The loop runs in blocks of identical composition: in every block each
client sends every grid subset once, plus a fixed number of duplicates
and cancels.  The block count follows from ``--seconds`` alone, so the
work is fixed; the seed picks order, duplicated grids and payloads.
Both clients start and end each block together, and the rates are
medians of the per-block rates, so a stall in one block does not move
them.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.client import ServiceClient, ServiceClientError
from repro.observability.export import read_jsonl
from repro.service.jobs import RESOLUTIONS

from perfbench.common import (
    ORIENTATION_NAMES,
    RESOLUTION_NAMES,
    ROOT,
    Ledger,
    beyond,
    check_cells,
    forked_children,
    load_reference,
    percentile,
    vm_hwm_mb,
)
from perfbench.layers import accumulate, finish_layers
from perfbench.probes import span_ledger

WORKERS = 2
CLIENTS = 2
#: Nominal seconds per block of the closed loop, used only to size the
#: fixed block count from ``--seconds``.
NOMINAL_BLOCK_S = 3.3
MIN_BLOCKS = 9
WARM_RESWEEPS = 40
SERVER_STARTS = 3
#: Per client and block: duplicates and cancels (the rest are the
#: block's plain subset jobs, see ``PLAIN_GRIDS``).
DUPS_PER_BLOCK = 5
CANCELS_PER_BLOCK = 3
PRIORITIES = (1, 3, 5, 7, 9)
#: Cancel requests use a grid no other request uses, so a cancel can
#: never hit a job another request is waiting for.
CANCEL_GRID = (("coarse",), ("y-z",))
FULL_GRID = (RESOLUTION_NAMES, ORIENTATION_NAMES)
RESULT_TIMEOUT_S = 60.0
PR_SET_PDEATHSIG = 1


def _subsets(names):
    return [tuple(n for i, n in enumerate(names) if mask >> i & 1)
            for mask in range(1, 2 ** len(names))]


#: Every (resolution subset, orientation subset) pair but the cancel
#: grid: 48 grids of 1 to 9 cells.  Each client sends each of them once
#: per block, so every block costs the same whatever the seed.
PLAIN_GRIDS = [(res, ori) for res in _subsets(RESOLUTION_NAMES)
               for ori in _subsets(ORIENTATION_NAMES)
               if (res, ori) != CANCEL_GRID]


# -- the server ---------------------------------------------------------------


def _die_with_parent() -> None:
    """Child-side: get SIGINT (a clean ``serve`` shutdown) if the
    benchmark dies, so a killed run leaves no server behind."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGINT)


class Server:
    """One ``serve`` subprocess on its own cache directory."""

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        self.log = cache_dir.parent / f"{cache_dir.name}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        # Output goes to a file, not a pipe: nothing has to drain it.
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--jobs", str(WORKERS), "--max-concurrent-jobs", str(WORKERS),
                 "--cache-dir", str(self.cache_dir)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
                preexec_fn=_die_with_parent,
            )
        deadline = time.monotonic() + timeout_s
        while self.url is None and time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log.read_text().splitlines():
                if "listening on" in line:
                    self.url = line.split()[-1]
            time.sleep(0.01)
        if self.url is None:
            self.stop()
            raise RuntimeError(f"serve did not report its address; see "
                               f"{self.log.read_text()[-2000:]!r}")
        ServiceClient(self.url, max_retries=1).healthz()

    def memory_mb(self) -> Tuple[float, float]:
        """(server peak MB, sum of its pool workers' peak MB)."""
        pid = self.proc.pid
        return vm_hwm_mb(pid), sum(vm_hwm_mb(w) for w in forked_children(pid))

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None


# -- the request sequence -------------------------------------------------------


def build_sequence(seed: int, blocks: int) -> List[List[List[dict]]]:
    """Per-client lists of blocks of requests.

    Every block of every client holds each of ``PLAIN_GRIDS`` once plus
    ``DUPS_PER_BLOCK`` duplicates and ``CANCELS_PER_BLOCK`` cancels; the
    seed picks the order, the duplicated grids, and the payload seeds.
    Both clients share the step kinds, so a ``dup`` step is the same
    request from both at once."""
    rng = random.Random(seed)
    dup_grids: List = []
    sequences: List[List[List[dict]]] = [[] for _ in range(CLIENTS)]
    for _block in range(blocks):
        kinds = (["dup"] * DUPS_PER_BLOCK + ["cancel"] * CANCELS_PER_BLOCK
                 + ["plain"] * len(PLAIN_GRIDS))
        rng.shuffle(kinds)
        plain = [rng.sample(PLAIN_GRIDS, len(PLAIN_GRIDS))
                 for _ in range(CLIENTS)]
        steps: List[List[dict]] = [[] for _ in range(CLIENTS)]
        for step, kind in enumerate(kinds):
            if kind == "dup":
                if not dup_grids:
                    dup_grids = rng.sample(PLAIN_GRIDS, len(PLAIN_GRIDS))
                shared = dup_grids.pop()
            for client in range(CLIENTS):
                if kind == "dup":
                    grid = shared
                elif kind == "cancel":
                    grid = CANCEL_GRID
                else:
                    grid = plain[client].pop()
                steps[client].append({
                    "kind": kind,
                    "seed": rng.randrange(1000),
                    "resolutions": list(grid[0]),
                    "orientations": list(grid[1]),
                    "priority": PRIORITIES[(step + client) % len(PRIORITIES)],
                })
        for client in range(CLIENTS):
            sequences[client].append(steps[client])
    return sequences


# -- running requests -----------------------------------------------------------


class Sample:
    """Client-side timing of one finished request, plus its job view."""

    __slots__ = ("latency_s", "submit_s", "done_wall", "view", "cells")

    def __init__(self, latency_s, submit_s, done_wall, view, cells):
        self.latency_s = latency_s
        self.submit_s = submit_s
        self.done_wall = done_wall
        self.view = view
        self.cells = cells


def _check_view(view, request: dict, ref: dict, what: str) -> List[str]:
    if view.state != "done":
        return [f"{what}: job {view.job_id} ended {view.state}: {view.error}"]
    result = view.result or {}
    expected = {f"{RESOLUTIONS[r].name}/{o}"
                for r in request["resolutions"] for o in request["orientations"]}
    fingerprints = result.get("fingerprints", {})
    if set(fingerprints) != expected or result.get("cells_failed"):
        return [f"{what}: job {view.job_id} returned cells "
                f"{sorted(fingerprints)}, expected {sorted(expected)}"]
    cells = {
        f"{res}/{ori}": (fingerprints[f"{res}/{ori}"], grade, matches)
        for res, ori, grade, _score, matches in result.get("summary", [])
    }
    return check_cells(ref, cells, f"{what} job {view.job_id}",
                       key_only_full=result.get("key_only_success"))


def run_request(client: ServiceClient, request: dict, ref: dict,
                what: str) -> Tuple[Optional[Sample], List[str]]:
    """One request to its terminal state; (sample or None, problems)."""
    payload = {k: request[k] for k in
               ("seed", "resolutions", "orientations", "priority")}
    start = time.perf_counter()
    try:
        view = client.submit(**payload)
        submit_s = time.perf_counter() - start
        if request["kind"] == "cancel":
            try:
                client.cancel(view.job_id)
            except ServiceClientError as exc:
                if exc.envelope.code != "not_cancellable":
                    raise
            view = client.wait_result(view.job_id, timeout_s=RESULT_TIMEOUT_S)
            if view.state == "cancelled":
                return None, []
            return None, _check_view(view, request, ref, what)
        view = client.wait_result(view.job_id, timeout_s=RESULT_TIMEOUT_S)
    except ServiceClientError as exc:
        return None, [f"{what}: {exc}"]
    latency = time.perf_counter() - start
    problems = _check_view(view, request, ref, what)
    cells = len(request["resolutions"]) * len(request["orientations"])
    return Sample(latency, submit_s, time.time(), view, cells), \
        problems


class Block:
    """Both clients' finished requests of one block and its duration.

    Blocks start and end on a barrier both clients wait at, so a block's
    duration covers exactly its requests."""

    __slots__ = ("seconds", "samples")

    def __init__(self, seconds: float, samples: List[Sample]):
        self.seconds = seconds
        self.samples = samples

    def jobs_per_s(self) -> float:
        return len(self.samples) / self.seconds

    def cells_per_s(self) -> float:
        return sum(s.cells for s in self.samples) / self.seconds

    def latency_p50_s(self) -> float:
        return statistics.median(s.latency_s for s in self.samples)


def closed_loop(url: str, sequences, ref):
    """Run every client's blocks; (blocks, problems, failed)."""
    count = len(sequences[0])
    marks: List[float] = []
    dup_barrier = threading.Barrier(CLIENTS, timeout=RESULT_TIMEOUT_S)
    block_barrier = threading.Barrier(
        CLIENTS, timeout=RESULT_TIMEOUT_S,
        action=lambda: marks.append(time.perf_counter()))
    outcomes = [{"samples": [[] for _ in range(count)], "problems": [],
                 "failed": 0} for _ in range(CLIENTS)]

    def client_loop(index: int) -> None:
        client = ServiceClient(url, tenant=f"tenant-{index}")
        out = outcomes[index]
        try:
            for block, requests in enumerate(sequences[index]):
                block_barrier.wait()
                for step, request in enumerate(requests):
                    if request["kind"] == "dup":
                        dup_barrier.wait()
                    sample, found = run_request(
                        client, request, ref,
                        f"client {index} block {block} step {step}")
                    if found:
                        out["failed"] += 1
                        out["problems"].extend(found)
                    if sample is not None:
                        out["samples"][block].append(sample)
            block_barrier.wait()
        except Exception as exc:  # noqa: BLE001 - reported, run fails
            out["failed"] += 1
            out["problems"].append(f"client {index}: {type(exc).__name__}: "
                                   f"{exc}")
            dup_barrier.abort()
            block_barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    problems = [p for out in outcomes for p in out["problems"]]
    failed = sum(out["failed"] for out in outcomes)
    if len(marks) != count + 1:
        return [], problems, failed
    blocks = [Block(marks[i + 1] - marks[i],
                    [s for out in outcomes for s in out["samples"][i]])
              for i in range(count)]
    return blocks, problems, failed


# -- the workload -----------------------------------------------------------------


def _start_servers(work: Path) -> Tuple[float, Server]:
    """Start ``SERVER_STARTS`` servers, keep the last; median start time."""
    times = []
    server = None
    for index in range(SERVER_STARTS):
        if server is not None:
            server.stop()
        cache = work / f"cache-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        server = Server(cache)
        start = time.perf_counter()
        server.start()
        times.append(time.perf_counter() - start)
    return statistics.median(times), server


def service_warm(seed: int, seconds: float, ledger: Ledger, work: Path,
                 traced: bool) -> None:
    ref = load_reference()["service_model"]
    blocks = max(MIN_BLOCKS, int(round(seconds / NOMINAL_BLOCK_S)))
    sequences = build_sequence(seed, blocks)
    start_s, server = _start_servers(work)
    try:
        client = ServiceClient(server.url, tenant="warm")
        full = {"kind": "plain", "seed": 0, "priority": 5,
                "resolutions": list(FULL_GRID[0]),
                "orientations": list(FULL_GRID[1])}
        start = time.perf_counter()
        _sample, problems = run_request(client, full, ref, "pre-warm")
        prewarm_s = time.perf_counter() - start
        ledger.op(problems)
        warm = []
        for index in range(WARM_RESWEEPS):
            sample, problems = run_request(client, full, ref,
                                           f"warm re-sweep {index}")
            ledger.op(problems)
            if sample is not None:
                warm.append(sample.latency_s)
        before = client.metrics()
        blocks, problems, failed = closed_loop(server.url, sequences, ref)
        ledger.attempted += sum(len(block) for seq in sequences
                                for block in seq)
        ledger.failed += failed
        ledger.problems.extend(problems)
        after = client.metrics()
        server_mb, workers_mb = server.memory_mb()
        parent_mb = vm_hwm_mb(os.getpid())
    finally:
        server.stop()

    if not blocks:
        ledger.problem("the closed loop did not finish every block")
        return
    samples = [s for block in blocks for s in block.samples]
    warm_rate = 9 / statistics.median(warm)
    if traced:
        _service_layers(ledger, samples, before, after, parent_mb,
                        server_mb + workers_mb, warm_rate)
        return
    # Medians over blocks of identical composition, so a stall that
    # hits one block does not move them.
    ledger.put("cells_per_s",
               statistics.median(b.cells_per_s() for b in blocks), "cells/s",
               len(blocks), note="median over blocks")
    ledger.put("warm_cells_per_s", warm_rate, "cells/s", len(warm),
               note="informational; median full-grid re-sweep")
    ledger.put("jobs_per_s",
               statistics.median(b.jobs_per_s() for b in blocks), "jobs/s",
               len(blocks), note="median over blocks; cancels excluded")
    ledger.put("job_latency_p50_ms",
               statistics.median(b.latency_p50_s() for b in blocks) * 1e3,
               "ms", len(samples), note="median of per-block medians")
    ledger.put("setup_s", start_s + prewarm_s, "s", SERVER_STARTS,
               note=f"median server start {start_s:.3f} s + pre-warm")
    ledger.put("peak_rss_mb", parent_mb + server_mb + workers_mb, "MB")


def _delta(after: dict, before: dict, name: str) -> float:
    return (after.get("counters", {}).get(name, 0)
            - before.get("counters", {}).get(name, 0))


def _service_layers(ledger: Ledger, samples: List[Sample], before: dict,
                    after: dict, parent_mb: float, workers_mb: float,
                    warm_rate: float) -> None:
    """Per-layer ledger from job timestamps, manifests and traces."""
    totals: Dict[str, float] = {}
    phases = {"http.submit_ms.p50": [], "queue.wait_ms.p50": [],
              "service.run_ms.p50": [], "http.delivery_ms.p50": [],
              "service.residual_ms.p50": []}
    jobs = {}
    for s in samples:
        v = s.view
        submit = s.submit_s
        queue = v.started_s - v.created_s
        run = v.finished_s - v.started_s
        delivery = s.done_wall - v.finished_s
        phases["http.submit_ms.p50"].append(submit * 1e3)
        phases["queue.wait_ms.p50"].append(queue * 1e3)
        phases["service.run_ms.p50"].append(run * 1e3)
        phases["http.delivery_ms.p50"].append(delivery * 1e3)
        phases["service.residual_ms.p50"].append(
            (s.latency_s - submit - queue - run - delivery) * 1e3)
        jobs[v.job_id] = v
    for name, values in phases.items():
        totals[name] = percentile(values, 50)
    latencies = [s.latency_s * 1e3 for s in samples]
    if beyond(len(latencies), 90) < 10:
        ledger.problem(f"only {len(latencies)} latency samples: too few "
                       f"for a p90")
    totals["service.job_latency_p90_ms"] = percentile(latencies, 90)

    # Per-job manifests and traces: reconcile each trace's stage totals
    # with its manifest, as the sweeps do with SweepReport.stats.
    run_gap = 0.0
    for job_id, view in jobs.items():
        manifest = json.loads(Path(view.result["manifest"]).read_text())
        reported = {name: (st.get("hits", 0), st.get("misses", 0),
                           st.get("run_s", 0.0))
                    for name, st in manifest["stages"].items()
                    if isinstance(st, dict) and "run_s" in st}
        layer = span_ledger(read_jsonl(view.result["trace"]), reported,
                            ledger.problems, job_id)
        counters = manifest["counters"]
        layer["cache.hits"] = counters["cache_hits"]
        layer["cache.misses"] = counters["cache_misses"]
        layer["cache.integrity_failures"] = counters["integrity_failures"]
        transport = manifest.get("transport") or {}
        for key, name in (("tasks", "transport.tasks"),
                          ("payload_bytes", "transport.bytes_sent"),
                          ("result_bytes", "transport.bytes_returned"),
                          ("max_task_bytes", "transport.max_task_bytes"),
                          ("inline_tasks", "transport.inline_tasks"),
                          ("mmap_bytes", "cache.mmap_bytes"),
                          ("pickle_bytes", "cache.pickle_bytes"),
                          ("zero_copy_hits", "cache.zero_copy_hits")):
            layer[name] = transport.get(key, 0)
        sched = (manifest.get("scheduler") or {}).get("totals", {})
        for key in ("requested", "scheduled", "deduped", "executed"):
            layer[f"sched.{key}"] = sched.get(key, 0)
        accumulate(totals, layer)
        # Service-side run time the fleet's own job wall does not cover
        # (dispatch, admission, publishing results).
        run_gap += ((view.finished_s - view.started_s)
                    - manifest["timings"]["wall_s"])
    totals["sched.residual_s"] = run_gap

    for name, counter in (("fleet.cross_job_deduped", "fleet.cross_job_deduped"),
                          ("fleet.fanout_results", "fleet.fanout_results"),
                          ("queue.coalesced_jobs", "service.coalesced_jobs"),
                          ("queue.joined_waiters", "service.joined_waiters"),
                          ("service.rejected_429", "service.jobs_rejected"),
                          ("service.cancelled", "service.jobs_cancelled")):
        totals[name] = _delta(after, before, counter)
    totals["fleet.cancelled_nodes"] = (after["fleet"]["cancelled_nodes"]
                                       - before["fleet"]["cancelled_nodes"])
    totals["pool.rebuilds"] = after.get("pool", {}).get("rebuilds", 0)
    totals["warm.cells_per_s"] = warm_rate
    totals["rss.parent_peak_mb"] = parent_mb
    totals["rss.workers_peak_mb"] = workers_mb
    finish_layers(ledger, totals, samples={
        name: len(samples) for name in list(phases) + ["service.job_latency_p90_ms"]
    })
