"""The batch workload ``sweep-disk``.

``ParallelSweep(jobs=2)`` sweeps fresh randomized-spline bars over a
fresh ``DiskStageCache``: a cold phase that writes the cache, then a
fresh executor and pool that re-sweep the same models from it.

A job here is one model's full 3 x 3 grid attack.  Every measured cold
phase starts on a fresh cache and a fresh pool and is checked to have
executed every planned node exactly once.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Callable, List, Tuple

from repro import observability as obs

from perfbench.common import (
    Ledger,
    attack_cells,
    check_cells,
    distinct_nodes,
    forked_children,
    grid_objects,
    import_seconds,
    load_reference,
    pick_models,
    vm_hwm_mb,
    work_units,
)
from perfbench.layers import accumulate, finish_layers
from perfbench.probes import KernelProbes, span_ledger, stats_triples

#: Nominal seconds per model used to size a run from ``--seconds``; the
#: count never depends on measured speed.  A model takes about 8 s
#: cold plus warm on 2 workers of a 2-vCPU host.
NOMINAL_MODEL_S = 8.0
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPS = 5
WORKERS = 2


#: What a fresh ``sweep`` process imports before its first stage runs.
SETUP_IMPORTS = ("repro.obfuscade.obfuscator", "repro.obfuscade.quality",
                 "repro.pipeline")


def timed_setup(build: Callable[[], object]) -> Tuple[float, object]:
    """Set up ``SETUP_REPS`` times: importing the program in a fresh
    interpreter, then building the run's inputs in this one.  Returns
    the median import time plus the median build time, and the inputs
    of the last build."""
    imports, builds, value = [], [], None
    for _ in range(SETUP_REPS):
        imports.append(import_seconds(SETUP_IMPORTS))
        start = time.perf_counter()
        value = build()
        builds.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(builds), value


def _models(seed: int, count: int, ledger: Ledger):
    from repro.mesh.content_hash import model_digest
    from repro.obfuscade.obfuscator import Obfuscator

    ref = load_reference()["sweep_models"]
    models = []
    for model_seed in pick_models(seed, count):
        protected = Obfuscator(model_seed).protect_tensile_bar(randomize=True)
        if model_digest(protected.model) != ref[str(model_seed)]["digest"]:
            ledger.problem(f"model seed {model_seed}: digest differs from "
                           f"the reference (inputs changed)")
        models.append((model_seed, protected, ref[str(model_seed)]))
    return models


def _attack_result(protected, report, resolutions, orientations):
    """An ``AttackResult`` over a sweep report, as the simulator builds it."""
    from repro.obfuscade.attack import AttackAttempt, AttackResult

    grid = {(r.name, o.value): (r, o) for r in resolutions for o in orientations}
    result = AttackResult(cache_stats=report.stats, failed=list(report.errors),
                          report=report)
    for cell in report.cells:
        r, o = grid[(cell.resolution, cell.orientation)]
        result.attempts.append(AttackAttempt(
            resolution=cell.resolution, orientation=cell.orientation,
            report=cell.assessment, matches_key=protected.key.matches(r, o)))
    return result


def _check_attack(result, ref_model, what: str, cold: bool) -> List[str]:
    problems = check_cells(ref_model, attack_cells(result), what,
                           key_only_full=result.key_only_success)
    if result.failed:
        problems.append(f"{what}: {len(result.failed)} cells failed: "
                        f"{result.failed[0].message}")
    if len(result.attempts) != len(ref_model["cells"]):
        problems.append(f"{what}: {len(result.attempts)} cells graded, "
                        f"expected {len(ref_model['cells'])}")
    report = result.report
    stats = report.stats
    if cold:
        planned = distinct_nodes(report.cells)
        if stats.total_misses != planned:
            problems.append(f"{what}: cold run executed {stats.total_misses} "
                            f"nodes, planned {planned}")
        if report.scheduler is not None:
            if report.scheduler.total_executed != stats.total_misses:
                problems.append(
                    f"{what}: scheduler executed "
                    f"{report.scheduler.total_executed} nodes, cache missed "
                    f"{stats.total_misses}")
            if stats.total_hits:
                problems.append(f"{what}: cold run hit the cache "
                                f"{stats.total_hits} times")
    elif stats.total_misses:
        problems.append(f"{what}: warm run recomputed "
                        f"{stats.total_misses} nodes")
    if report.pool_rebuilds or report.degraded_to_serial:
        problems.append(f"{what}: pool rebuilt {report.pool_rebuilds} times")
    return problems


def _traced(run: Callable[[], object]):
    """Run ``run`` with the program's tracer and the kernel probes
    installed; returns its result and the finished spans."""
    tracer = obs.install(obs.Tracer())
    try:
        with KernelProbes():
            out = run()
    finally:
        obs.uninstall()
    return out, tracer.drain()


def _both_passes(index: int, plain: Callable[[], float],
                 traced: Callable[[], float]) -> Tuple[float, float]:
    """One untraced and one traced pass over a model, alternating which
    goes first so first-pass effects do not bias the overhead."""
    if index % 2:
        traced_s = traced()
        return plain(), traced_s
    plain_s = plain()
    return plain_s, traced()


# -- sweep-disk ---------------------------------------------------------------


def _disk_phase(protected, cache_dir, resolutions, orientations):
    """One sweep on a fresh pool; returns (report, wall, workers' MB)."""
    from repro.obfuscade import quality
    from repro.pipeline import ParallelSweep, WorkerPool

    pool = WorkerPool(WORKERS)
    try:
        sweep = ParallelSweep(jobs=WORKERS, cache_dir=str(cache_dir), pool=pool)
        start = time.perf_counter()
        # Looked up at call time so a traced run ships the probe.
        report = sweep.run(protected.model, resolutions, orientations,
                           assess=quality.assess_print)
        wall = time.perf_counter() - start
        workers = forked_children(os.getpid())
        if len(workers) != WORKERS:
            raise RuntimeError(f"expected {WORKERS} live pool workers, "
                               f"found {len(workers)}")
        workers_mb = sum(vm_hwm_mb(pid) for pid in workers)
    finally:
        pool.shutdown()
    return _attack_result(protected, report, resolutions, orientations), \
        wall, workers_mb


def _disk_model(model_seed, protected, ref, cache_dir, ledger,
                resolutions, orientations):
    """Cold then warm sweep of one model; returns both phases."""
    phases = []
    for phase, cold in (("cold", True), ("warm", False)):
        result, wall, workers_mb = _disk_phase(protected, cache_dir,
                                               resolutions, orientations)
        ledger.op(_check_attack(result, ref, f"model {model_seed} {phase}",
                                cold))
        phases.append((result, wall, workers_mb))
    return phases


def _work_dir(base, name: str):
    path = base / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sweep_disk(seed: int, seconds: float, ledger: Ledger, work) -> None:
    resolutions, orientations = grid_objects()
    count = work_units(seconds, NOMINAL_MODEL_S, 8)

    def build():
        return _models(seed, count, ledger), _work_dir(work, "cache")

    setup_s, (models, cache_dir) = timed_setup(build)
    cold, warm, workers_mb = [], [], 0.0
    for model_seed, protected, ref in models:
        (_r1, cold_s, cold_mb), (_r2, warm_s, warm_mb) = _disk_model(
            model_seed, protected, ref, cache_dir, ledger,
            resolutions, orientations)
        cold.append(cold_s)
        warm.append(warm_s)
        workers_mb = max(workers_mb, cold_mb, warm_mb)
    cells = len(resolutions) * len(orientations)
    _put_sweep(ledger, cells, cold, cells * len(models) / sum(warm),
               cells * len(models), setup_s,
               vm_hwm_mb(os.getpid()) + workers_mb)


def sweep_disk_traced(seed: int, seconds: float, ledger: Ledger, work) -> None:
    from repro.pipeline.cache import CacheStats

    resolutions, orientations = grid_objects()
    count = work_units(seconds, NOMINAL_MODEL_S, 8)
    models = _models(seed, count, ledger)
    plain_s = traced_s = 0.0
    workers_mb = 0.0
    totals: dict = {}
    warm: List[float] = []
    for index, (model_seed, protected, ref) in enumerate(models):
        def plain():
            # A fresh directory per pass: each cold phase must be cold.
            phases = _disk_model(model_seed, protected, ref,
                                 _work_dir(work, "plain"), ledger,
                                 resolutions, orientations)
            warm.append(phases[1][1])
            return sum(wall for _r, wall, _mb in phases)

        def traced():
            nonlocal workers_mb
            phases, spans = _traced(lambda: _disk_model(
                model_seed, protected, ref, _work_dir(work, "traced"),
                ledger, resolutions, orientations))
            workers_mb = max([workers_mb] + [mb for _r, _w, mb in phases])
            stats = CacheStats()
            for result, _wall, _mb in phases:
                stats.merge(result.report.stats)
            what = f"model {model_seed} traced"
            layer = span_ledger(spans, stats_triples(stats), ledger.problems,
                                what)
            if layer["ledger.derived_hits"]:
                ledger.problem(f"{what}: {layer['ledger.derived_hits']} "
                               f"finalize memo hits in a fresh pool")
            walls = sum(wall for _r, wall, _mb in phases)
            # Worker-seconds of the pool not covered by a stage or the
            # grader.
            layer["sched.residual_s"] = (WORKERS * walls
                                         - layer["ledger.stage_span_s"]
                                         - layer["stage.assess.busy_s"])
            _add_cache_counters(layer, stats)
            for result, _wall, _mb in phases:
                _add_report_counters(layer, result.report)
            accumulate(totals, layer)
            return walls

        walls = _both_passes(index, plain, traced)
        plain_s += walls[0]
        traced_s += walls[1]
    totals["warm.cells_per_s"] = (len(resolutions) * len(orientations)
                                  * len(warm) / sum(warm))
    _finish_layers(ledger, totals, plain_s, traced_s,
                   parent_mb=vm_hwm_mb(os.getpid()), workers_mb=workers_mb)


# -- shared metric assembly -----------------------------------------------------


def _put_sweep(ledger: Ledger, cells: int, cold: List[float],
               warm_rate: float, warm_samples: int, setup_s: float,
               peak_mb: float) -> None:
    # Medians over models, so a stall during one model's sweep does not
    # move the rates.
    median_s = statistics.median(cold)
    jobs = len(cold)
    ledger.put("cells_per_s", cells / median_s, "cells/s", jobs,
               note="median over models")
    ledger.put("warm_cells_per_s", warm_rate, "cells/s", warm_samples,
               note="informational")
    ledger.put("jobs_per_s", 1.0 / median_s, "jobs/s", jobs,
               note="median over models")
    ledger.put("job_latency_p50_ms", median_s * 1e3, "ms", jobs,
               note="cold grid attacks only")
    ledger.put("setup_s", setup_s, "s", SETUP_REPS)
    ledger.put("peak_rss_mb", peak_mb, "MB")


def _add_cache_counters(layer: dict, stats) -> None:
    layer["cache.hits"] = stats.total_hits
    layer["cache.misses"] = stats.total_misses
    layer["cache.mmap_bytes"] = stats.mmap_bytes
    layer["cache.pickle_bytes"] = stats.pickle_bytes
    layer["cache.zero_copy_hits"] = stats.zero_copy_hits
    layer["cache.integrity_failures"] = stats.integrity_failures


def _add_report_counters(layer: dict, report) -> None:
    def add(name, value):
        layer[name] = layer.get(name, 0) + value

    transport = report.transport
    if transport is not None:
        add("transport.tasks", transport.tasks)
        add("transport.bytes_sent", transport.payload_bytes)
        add("transport.bytes_returned", transport.result_bytes)
        layer["transport.max_task_bytes"] = max(
            layer.get("transport.max_task_bytes", 0), transport.max_task_bytes)
        add("transport.inline_tasks", transport.inline_tasks)
    add("pool.rebuilds", report.pool_rebuilds)
    sched = report.scheduler
    if sched is not None:
        add("sched.requested", sched.total_requested)
        add("sched.scheduled", sched.total_scheduled)
        add("sched.deduped", sched.total_deduped)
        add("sched.executed", sched.total_executed)
        add("fleet.cross_job_deduped", sched.cross_job_deduped)
        add("fleet.fanout_results", sched.fanout_results)
        add("fleet.cancelled_nodes", sched.cancelled_nodes)


def _finish_layers(ledger: Ledger, totals: dict, plain_s: float,
                   traced_s: float, parent_mb: float, workers_mb: float) -> None:
    totals["trace.overhead_frac"] = traced_s / plain_s - 1.0
    totals["rss.parent_peak_mb"] = parent_mb
    totals["rss.workers_peak_mb"] = workers_mb
    finish_layers(ledger, totals)
