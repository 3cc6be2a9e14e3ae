"""The per-layer metric catalogue and its final assembly.

Every traced run reports every metric below, whatever the workload.  A
layer a workload bypasses reads 0 and is labelled in the printed table;
README.md says which layer each workload loads.
"""

from __future__ import annotations

from typing import Dict

from perfbench.common import Ledger
from perfbench.probes import STAGES

PER_LAYER = (
    [(f"stage.{s}.{k}", unit) for s in STAGES
     for k, unit in (("busy_s", "s"), ("runs", "count"))]
    + [
        ("kernel.rasterize_stack.busy_s", "s"),
        ("kernel.support_columns.busy_s", "s"),
        ("kernel.bead_merge.busy_s", "s"),
        ("kernel.deposit.voxels", "count"),
        ("kernel.deposit.mvox_per_s", "Mvox/s"),
        ("kernel.deposit.bytes_computed", "bytes"),
        ("kernel.deposit.unique_layer_frac", "frac"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_frac", "frac"),
        ("cache.store_s", "s"),
        ("cache.load_s", "s"),
        ("cache.bytes_written", "bytes"),
        ("cache.mmap_bytes", "bytes"),
        ("cache.pickle_bytes", "bytes"),
        ("cache.zero_copy_hits", "count"),
        ("cache.integrity_failures", "count"),
        ("transport.tasks", "count"),
        ("transport.bytes_sent", "bytes"),
        ("transport.bytes_returned", "bytes"),
        ("transport.max_task_bytes", "bytes"),
        ("transport.inline_tasks", "count"),
        ("pool.rebuilds", "count"),
        ("sched.requested", "count"),
        ("sched.scheduled", "count"),
        ("sched.deduped", "count"),
        ("sched.executed", "count"),
        ("fleet.cross_job_deduped", "count"),
        ("fleet.fanout_results", "count"),
        ("fleet.cancelled_nodes", "count"),
        ("sched.residual_s", "s"),
        ("http.submit_ms.p50", "ms"),
        ("queue.wait_ms.p50", "ms"),
        ("service.run_ms.p50", "ms"),
        ("http.delivery_ms.p50", "ms"),
        ("service.residual_ms.p50", "ms"),
        ("service.job_latency_p90_ms", "ms"),
        ("queue.coalesced_jobs", "count"),
        ("queue.joined_waiters", "count"),
        ("service.rejected_429", "count"),
        ("service.cancelled", "count"),
        ("warm.cells_per_s", "cells/s"),
        ("trace.overhead_frac", "frac"),
        ("rss.parent_peak_mb", "MB"),
        ("rss.workers_peak_mb", "MB"),
        ("ledger.stage_run_s", "s"),
        ("ledger.stage_span_s", "s"),
        ("ledger.stage_residual_s", "s"),
        ("ledger.cache_overhead_s", "s"),
    ]
)
PER_LAYER_NAMES = [name for name, _unit in PER_LAYER]


#: Layer values that combine by maximum across models or jobs, not by sum.
_MAX_KEYS = ("transport.max_task_bytes",)


def accumulate(totals: Dict[str, float], layer: Dict[str, float]) -> None:
    """Add one model's or job's layer values into the run totals."""
    for name, value in layer.items():
        if name in _MAX_KEYS:
            totals[name] = max(totals.get(name, 0), value)
        else:
            totals[name] = totals.get(name, 0) + value


def finish_layers(ledger: Ledger, totals: Dict[str, float],
                  samples: Dict[str, int] = None) -> None:
    """Derive the ratios from summed totals and fill the ledger.

    ``totals`` holds sums over the traced work (keys starting with ``_``
    are raw inputs to ratios); metrics absent from it read 0 and are
    marked as not exercised by this workload."""
    samples = samples or {}
    deposit = (totals.get("kernel.rasterize_stack.busy_s", 0.0)
               + totals.get("kernel.support_columns.busy_s", 0.0)
               + totals.get("kernel.bead_merge.busy_s", 0.0))
    if deposit:
        totals["kernel.deposit.mvox_per_s"] = (
            totals.get("kernel.deposit.voxels", 0) / deposit / 1e6)
    if totals.get("_layers"):
        totals["kernel.deposit.unique_layer_frac"] = (
            totals["_unique_layers"] / totals["_layers"])
    lookups = totals.get("cache.hits", 0) + totals.get("cache.misses", 0)
    if lookups:
        totals["cache.hit_frac"] = totals.get("cache.hits", 0) / lookups
    for name, unit in PER_LAYER:
        if name in totals:
            ledger.put(name, totals[name], unit, samples.get(name))
        else:
            ledger.put(name, 0.0, unit, note="not exercised")
