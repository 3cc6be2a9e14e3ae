"""Traced-run instruments: benchmark-side probes and the span ledger.

The program is measured from outside.  :class:`KernelProbes` swaps the
public kernel entry points the deposit stage calls (and the quality
grader) for wrappers that open ``bench.<probe>`` spans on the program's
own tracer (:mod:`repro.observability`).  Pool workers are forked after
the swap, so they run the wrappers too, and the scheduler's existing
span transport ships their spans back.  :func:`span_ledger` then folds
the spans into per-layer totals, next to the counters the program
itself reports, so the two can be reconciled.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro import observability as obs
from repro.observability.export import stage_totals

#: Stages of the chain in execution order, plus the grader the sweep
#: runs on every cell (``obfuscade.quality.assess_print``).
CHAIN_STAGES = ("tessellate", "seam", "resolve", "orient", "slice",
                "toolpath", "gcode", "firmware", "deposit")
STAGES = CHAIN_STAGES + ("assess",)

#: Floating-point slack when reconciling span sums with reported sums.
RECONCILE_TOL_S = 1e-6


def _unique_layers(raw: np.ndarray) -> int:
    if raw.ndim != 3 or raw.shape[0] == 0:
        return 0
    keys = np.packbits(raw.reshape(raw.shape[0], -1), axis=1)
    return len({row.tobytes() for row in keys})


def _raster_attrs(raw) -> dict:
    return {"layers": int(raw.shape[0]), "unique_layers": _unique_layers(raw),
            "bytes": int(raw.nbytes)}


def _deposit_attrs(artifact) -> dict:
    grids = (artifact.model, artifact.support, artifact.weak, artifact.voids)
    return {"voxels": int(artifact.model.size),
            "bytes": int(sum(g.nbytes for g in grids))}


class KernelProbes:
    """Context manager installing the probe wrappers, then restoring."""

    def __init__(self):
        from repro.obfuscade import quality
        from repro.printer import deposition

        self._targets = [
            (deposition, "rasterize_stack", "rasterize_stack", _raster_attrs),
            (deposition, "support_columns", "support_columns", None),
            (deposition.DepositionSimulator, "build_from_slices", "deposit",
             _deposit_attrs),
            # ParallelSweep pickles the grader by its qualified name.
            (quality, "assess_print", "assess", None),
        ]
        self._saved: List = []

    def __enter__(self):
        for owner, attr, probe, describe in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, probe, describe))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def _wrap(fn, probe: str, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(f"bench.{probe}") as span:
            out = fn(*args, **kwargs)
        if span is not None and describe is not None:
            # Described after the span closed: the analysis is probe
            # overhead, not kernel time.
            span.attrs.update(describe(out))
        return out

    return wrapper


def span_ledger(spans: Iterable, reported: Dict[str, Tuple[int, int, float]],
                problems: List[str], what: str) -> Dict[str, float]:
    """Per-layer totals from traced spans, reconciled with ``reported``.

    ``reported`` maps each stage to the (hits, misses, run_s) the program
    itself reported for exactly the traced work (``SweepReport.stats``
    or a job manifest).  The span-derived values must equal it; any
    disagreement is appended to ``problems``.  Probe-derived metrics are
    returned only when the spans contain probe spans.
    """
    rows = [s if isinstance(s, dict) else s.to_dict() for s in spans]

    def attr(row, key, default=0):
        return (row.get("attrs") or {}).get(key, default)

    def total(name, **match):
        return sum(r["duration_s"] for r in rows if r["name"] == name
                   and all(attr(r, k, None) == v for k, v in match.items()))

    def attr_sum(names, key):
        return sum(attr(r, key) for r in rows if r["name"] in names)

    out: Dict[str, float] = {}
    from_spans = stage_totals(rows)
    residual = 0.0
    for stage in CHAIN_STAGES:
        got = from_spans.get(stage, {"hits": 0, "misses": 0, "run_s": 0.0})
        hits, misses, run_s = reported.get(stage, (0, 0, 0.0))
        residual += abs(got["run_s"] - run_s)
        if (got["hits"], got["misses"]) != (hits, misses):
            problems.append(
                f"{what}: stage {stage} spans count hits/misses "
                f"{got['hits']}/{got['misses']}, reported {hits}/{misses}")
        out[f"stage.{stage}.busy_s"] = got["run_s"]
        out[f"stage.{stage}.runs"] = got["misses"]
    if residual > RECONCILE_TOL_S:
        problems.append(f"{what}: span stage run_s differs from reported "
                        f"run_s by {residual:.6f} s")
    out["ledger.stage_run_s"] = sum(run_s for _h, _m, run_s in reported.values())
    out["ledger.stage_residual_s"] = residual
    # The cache tier's share of each stage boundary: lookups, stores
    # and decoding inside ``stage.<s>`` spans but outside compute.
    out["ledger.stage_span_s"] = sum(r["duration_s"] for r in rows
                                     if r["name"].startswith("stage."))
    out["ledger.cache_overhead_s"] = (out["ledger.stage_span_s"]
                                      - out["ledger.stage_run_s"])
    out["cache.store_s"] = total("cache.store")
    out["cache.bytes_written"] = attr_sum(("cache.store",), "bytes")
    out["cache.load_s"] = (total("cache.get", tier="disk")
                           + total("cache.fetch", hit=True))
    out["ledger.derived_hits"] = sum(
        1 for r in rows if r["name"] == "sweep.cell" and attr(r, "derived_hit"))

    if any(r["name"].startswith("bench.") for r in rows):
        deposit = total("bench.deposit")
        raster = total("bench.rasterize_stack")
        support = total("bench.support_columns")
        out["stage.assess.busy_s"] = total("bench.assess")
        out["stage.assess.runs"] = sum(1 for r in rows
                                       if r["name"] == "bench.assess")
        out["kernel.rasterize_stack.busy_s"] = raster
        out["kernel.support_columns.busy_s"] = support
        out["kernel.bead_merge.busy_s"] = max(0.0, deposit - raster - support)
        out["kernel.deposit.voxels"] = attr_sum(("bench.deposit",), "voxels")
        out["kernel.deposit.bytes_computed"] = attr_sum(
            ("bench.deposit", "bench.rasterize_stack"), "bytes")
        out["_layers"] = attr_sum(("bench.rasterize_stack",), "layers")
        out["_unique_layers"] = attr_sum(("bench.rasterize_stack",),
                                         "unique_layers")
    return out


def stats_triples(stats) -> Dict[str, Tuple[int, int, float]]:
    """``CacheStats`` per stage as (hits, misses, run_s)."""
    return {name: (s.hits, s.misses, s.run_s) for name, s in stats.stages.items()}
