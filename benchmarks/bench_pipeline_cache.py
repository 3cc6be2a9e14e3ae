"""EXP-P1 - staged engine: cold vs. warm grid-search wall time.

The counterfeiter's settings grid search is the paper's core workload
(and the core workload of the related detection literature).  This
bench runs the same (3 resolutions x 3 orientations) search three ways:

* **cold** - every cell attacked alone on its own fresh chain: no
  cross-cell reuse, so every cell recomputes the whole chain, which is
  exactly what the legacy ``PrintJob`` loop did;
* **warm** - one search on a fresh chain: its fleet job schedules the
  orientation-independent stages (tessellate, resolve) once per
  resolution and shares them across the orientations;
* **hot**  - the same search repeated on the warm chain: every cell is
  answered from the chain's finalize memo at admission.

Each mode is measured ``ROUNDS`` times (best-of, with a GC between
measurements) because single-digit-percent wall-clock differences on a
shared host are dominated by allocator/OS noise.  Results go to
``benchmarks/results/`` as both a text table and machine-readable
JSON (``BENCH_pipeline.json``).

Set ``OBFUSCADE_BENCH_SMOKE=1`` for the CI smoke configuration: a
2x2 grid, one round, and no wall-clock ratio assertions (cache
behaviour is still asserted exactly).
"""

import gc
import os
import tempfile
import time

from repro.cad import COARSE, StlResolution
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import ParallelSweep, ProcessChain
from repro.printer import PrintOrientation

from repro.envflags import env_flag

SMOKE = env_flag("OBFUSCADE_BENCH_SMOKE", default=False)

RESOLUTIONS = (
    COARSE,
    StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012),
    StlResolution(name="Loose", angle_deg=25.0, deviation_fraction=0.0016),
)
ORIENTATIONS = (
    PrintOrientation.XY,
    PrintOrientation.XZ,
    PrintOrientation.YZ,
)
if SMOKE:
    RESOLUTIONS = RESOLUTIONS[:2]
    ORIENTATIONS = ORIENTATIONS[:2]

# Warm's true advantage over cold (the shared tessellate/resolve
# compute minus cache bookkeeping) is a few percent - the same order
# as host noise on one round - so each mode takes its best of several
# interleaved rounds, which converges on the modes' true floors.
ROUNDS = 1 if SMOKE else 3

#: Hot-search wall clock (``hot_timings.wall_s``) of the committed
#: baseline *before* the zero-copy data plane landed: every stage hit
#: the cache but fingerprints, assessments and unpacks were recomputed
#: per round.  The data plane must at least halve this (the >= 2x gate
#: of the derived-product memo); kept as a constant so the bar does not
#: ratchet as the committed JSON is regenerated.
PRE_DATA_PLANE_HOT_WALL_S = 2.30


def _search(protected, chain):
    sim = CounterfeiterSimulator(
        resolutions=RESOLUTIONS, orientations=ORIENTATIONS, chain=chain
    )
    start = time.perf_counter()
    result = sim.attack(protected)
    return time.perf_counter() - start, result


def _cold_search(protected):
    """The grid one cell at a time, each on a fresh chain; returns the
    wall time and the summary rows in grid order."""
    start = time.perf_counter()
    rows = []
    for resolution in RESOLUTIONS:
        for orientation in ORIENTATIONS:
            rows += CounterfeiterSimulator(
                resolutions=(resolution,),
                orientations=(orientation,),
                chain=ProcessChain(),
            ).attack(protected).summary_rows()
    return time.perf_counter() - start, rows


def _parallel_sweep(protected, cache_dir):
    """One jobs=2 sweep over a shared disk cache (handle-passing)."""
    sweep = ParallelSweep(jobs=2, cache_dir=cache_dir)
    start = time.perf_counter()
    report = sweep.run(
        protected.model, RESOLUTIONS, ORIENTATIONS, assess=assess_print
    )
    return time.perf_counter() - start, report


def run():
    protected = Obfuscator(seed=7).protect_tensile_bar()

    cold_times, warm_times, hot_times = [], [], []
    cold_rows = warm = hot = None
    for _ in range(ROUNDS):
        gc.collect()
        cold_s, cold_rows = _cold_search(protected)
        cold_times.append(cold_s)

        gc.collect()
        warm_chain = ProcessChain()
        warm_s, warm = _search(protected, warm_chain)
        warm_times.append(warm_s)

        gc.collect()
        hot_s, hot = _search(protected, warm_chain)
        hot_times.append(hot_s)

        # Caching must not change a single verdict.
        assert warm.summary_rows() == cold_rows == hot.summary_rows()

    # The zero-copy data plane, measured once: a cold jobs=2 sweep
    # populates a shared disk cache (workers receive a model *handle*,
    # not the model), then a warm repeat answers from mmap-backed
    # segment reads.  Fingerprints must match the inline search's.
    with tempfile.TemporaryDirectory(prefix="bench-data-plane-") as tmp:
        gc.collect()
        pcold_s, pcold = _parallel_sweep(protected, tmp)
        gc.collect()
        pwarm_s, pwarm = _parallel_sweep(protected, tmp)
    assert (
        [c.fingerprint for c in pcold.cells]
        == [c.fingerprint for c in pwarm.cells]
        == [c.fingerprint for c in warm.report.cells]
    )

    return {
        "parallel_cold_s": pcold_s,
        "parallel_warm_s": pwarm_s,
        "parallel_cold_report": pcold,
        "parallel_warm_report": pwarm,
        "cold_s": min(cold_times),
        "warm_s": min(warm_times),
        "hot_s": min(hot_times),
        "rounds": ROUNDS,
        "warm_stats": warm.cache_stats,
        "hot_stats": hot.cache_stats,
        "warm_report": warm.report,
        "hot_report": hot.report,
    }


def test_pipeline_cache_speedup(benchmark, report):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    warm_speedup = r["cold_s"] / r["warm_s"]
    hot_speedup = r["cold_s"] / max(r["hot_s"], 1e-9)

    # The run-manifest builder (ISSUE 4) doubles as the bench's
    # machine-readable accounting: its counters/timings blocks are
    # derived from the same SweepReport the search produced, so the
    # JSON consumers get the stable manifest schema for free.
    from repro.observability.manifest import sweep_manifest, validate_manifest

    manifests = {
        mode: sweep_manifest(
            r[f"{mode}_report"],
            model_name="tensile-bar",
            config={"mode": mode, "smoke": SMOKE},
        )
        for mode in ("warm", "hot")
    }
    for mode, doc in manifests.items():
        assert validate_manifest(doc) == [], mode
    sched = r["warm_report"].scheduler
    pcold, pwarm = r["parallel_cold_report"], r["parallel_warm_report"]
    lines = [
        f"grid: {len(RESOLUTIONS)} resolutions x {len(ORIENTATIONS)} orientations"
        f" (best of {r['rounds']} rounds{', smoke' if SMOKE else ''})",
        f"cold (cell by cell) : {r['cold_s']:8.2f} s",
        f"warm (shared nodes) : {r['warm_s']:8.2f} s   speedup {warm_speedup:5.2f}x",
        f"hot  (repeat search): {r['hot_s']:8.2f} s   speedup {hot_speedup:5.2f}x",
        f"jobs=2, cold disk   : {r['parallel_cold_s']:8.2f} s   (handle-passing workers)",
        f"jobs=2, warm disk   : {r['parallel_warm_s']:8.2f} s   (mmap segment reads)",
        "",
        "warm jobs=2 transport:",
        *(pwarm.transport.render() if pwarm.transport else []),
        f"zero-copy disk reads: {pwarm.stats.zero_copy_hits} "
        f"({pwarm.stats.mmap_bytes} B mmapped, "
        f"{pwarm.stats.pickle_bytes} B unpickled)",
        "",
        "warm search per-stage counters:",
        *r["warm_stats"].render(),
        "",
        "warm search scheduler node counters:",
        *sched.render(),
    ]
    report(
        "pipeline cache speedup",
        lines,
        data={
            "grid": {
                "resolutions": [res.name for res in RESOLUTIONS],
                "orientations": [o.value for o in ORIENTATIONS],
            },
            "smoke": SMOKE,
            "rounds": r["rounds"],
            "cold_s": r["cold_s"],
            "warm_s": r["warm_s"],
            "hot_s": r["hot_s"],
            "warm_speedup": warm_speedup,
            "hot_speedup": hot_speedup,
            "warm_stages": r["warm_stats"].to_dict(),
            "hot_stages": r["hot_stats"].to_dict(),
            "warm_counters": manifests["warm"]["counters"],
            "hot_counters": manifests["hot"]["counters"],
            "warm_timings": manifests["warm"]["timings"],
            "hot_timings": manifests["hot"]["timings"],
            "warm_scheduler": sched.to_dict(),
            # Zero-copy data plane: jobs=2 over a shared disk cache,
            # cold (populate) then warm (all-hits), with the worker-pipe
            # byte ledger and the mmap/pickle read split of each leg.
            "transport": {
                "cold_s": r["parallel_cold_s"],
                "warm_s": r["parallel_warm_s"],
                "cold": pcold.transport.to_dict(),
                "warm": pwarm.transport.to_dict(),
                "cold_data_plane": {
                    "zero_copy_hits": pcold.stats.zero_copy_hits,
                    "mmap_bytes": pcold.stats.mmap_bytes,
                    "pickle_bytes": pcold.stats.pickle_bytes,
                },
                "warm_data_plane": {
                    "zero_copy_hits": pwarm.stats.zero_copy_hits,
                    "mmap_bytes": pwarm.stats.mmap_bytes,
                    "pickle_bytes": pwarm.stats.pickle_bytes,
                },
            },
        },
        json_name="BENCH_pipeline.json",
    )

    warm_stats = r["warm_stats"].stages
    # The orientation-independent stages ran once per resolution.
    assert warm_stats["tessellate"].misses == len(RESOLUTIONS)
    assert sched.stages["tessellate"].deduped == len(RESOLUTIONS) * (len(ORIENTATIONS) - 1)
    assert warm_stats["resolve"].misses == len(RESOLUTIONS)
    # A populated cache answers the whole search from hits.
    assert r["hot_stats"].total_misses == 0
    assert r["hot_s"] < r["cold_s"]
    # Stage-granular scheduling: shared stages executed once per
    # resolution fleet-wide (not merely served from cache races).
    sched_stages = sched.stages
    n_cells = len(RESOLUTIONS) * len(ORIENTATIONS)
    for stage in ("tessellate", "resolve"):
        assert sched_stages[stage].requested == n_cells
        assert sched_stages[stage].scheduled == len(RESOLUTIONS)
        assert sched_stages[stage].executed == len(RESOLUTIONS)
    # Handle-passing: every worker task carried a model digest, never
    # the model, and no task ever shipped a voxel grid over the pipe.
    for leg in (pcold, pwarm):
        t = leg.transport
        assert t is not None and t.tasks > 0
        assert t.inline_tasks == 0 and t.handle_tasks == t.tasks
        assert t.max_task_bytes <= 65536, t.max_task_bytes
    # The warm leg read its grids through mmap, not unpickling.
    assert pwarm.stats.zero_copy_hits > 0
    assert pwarm.stats.mmap_bytes > pwarm.stats.pickle_bytes
    # Warm-sweep overhead budget (smoke-safe): a fully-warm repeat is
    # pure cache bookkeeping and must stay far below a cold search.
    assert r["hot_s"] <= 0.5 * r["cold_s"], (r["hot_s"], r["cold_s"])
    if not SMOKE:
        # Sharing a cache across the sweep must never cost wall time:
        # warm does a strict subset of cold's compute.
        assert r["warm_s"] <= r["cold_s"]
        assert hot_speedup > 2.0
        # The all-hits search must beat the pre-data-plane hot wall
        # clock by >= 2x (the finalize/decoded memos skip recomputing
        # fingerprints, assessments and unpacks on warm repeats).
        hot_wall = manifests["hot"]["timings"]["wall_s"]
        assert hot_wall <= PRE_DATA_PLANE_HOT_WALL_S / 2.0, hot_wall
