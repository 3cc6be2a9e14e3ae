"""Per-run manifests: one JSON document saying what a run did.

The paper's Table 1 argues every process-chain stage needs an audit
trail; the detection literature (power traces, audio signatures)
instruments the physical chain the same way.  A :func:`sweep_manifest`
is our software chain's audit record: input digests, configuration,
environment, per-stage timings, cache/integrity/retry counters and the
final artifact fingerprints of one sweep, written atomically (temp file
+ ``os.replace``) so a crash can never leave a half-written manifest.

The builder is duck-typed over :class:`~repro.pipeline.parallel.SweepReport`
(anything with ``cells``/``errors``/``stats``/``jobs``/``wall_s``)
rather than importing it, keeping :mod:`repro.observability` a leaf
package with no intra-``repro`` dependencies.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.observability.export import _write_atomic

#: Version tag of the manifest schema (checked by the CI validator).
MANIFEST_SCHEMA = "obfuscade.run-manifest/1"

#: Top-level keys every manifest must carry.
MANIFEST_REQUIRED_KEYS = (
    "schema", "kind", "created_at_s", "model", "config", "environment",
    "grid", "cells", "errors", "stages", "counters", "timings",
    "fingerprints",
)


def environment_info() -> Dict[str, Any]:
    """The reproducibility-relevant facts of the executing host."""
    info: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pid": os.getpid(),
    }
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        info["numpy"] = None
    return info


def sweep_manifest(
    report,
    *,
    model_name: Optional[str] = None,
    model_digest: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    trace_path: Optional[Union[str, os.PathLike]] = None,
    trace_spans: Optional[int] = None,
    metrics=None,
) -> Dict[str, Any]:
    """Build the manifest document for one sweep ``report``.

    ``report`` duck-types ``SweepReport``; ``config`` is whatever the
    caller considers the run's configuration (CLI args, grid, machine).
    """
    cells: List[Dict[str, Any]] = [
        {
            "resolution": c.resolution,
            "orientation": c.orientation,
            "fingerprint": c.fingerprint,
            "attempts": c.attempts,
        }
        for c in report.cells
    ]
    errors: List[Dict[str, Any]] = [
        {
            "resolution": e.resolution,
            "orientation": e.orientation,
            "error_type": e.error_type,
            "stage": e.stage,
            "attempts": e.attempts,
            "transient": bool(e.transient),
            "message": e.message,
        }
        for e in report.errors
    ]
    stats = report.stats
    retries = sum(max(0, c.attempts - 1) for c in report.cells)
    retries += sum(max(0, e.attempts - 1) for e in report.errors)
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": "sweep",
        "created_at_s": time.time(),
        "model": {"name": model_name, "digest": model_digest},
        "config": dict(config or {}),
        "environment": environment_info(),
        "grid": {
            "cells": len(cells) + len(errors),
            "jobs": report.jobs,
        },
        "cells": cells,
        "errors": errors,
        "stages": stats.to_dict(),
        "counters": {
            "cache_hits": stats.total_hits,
            "cache_misses": stats.total_misses,
            "integrity_failures": stats.integrity_failures,
            "store_failures": stats.store_failures,
            "retries": retries,
            "cells_ok": len(cells),
            "cells_failed": len(errors),
            "pool_rebuilds": getattr(report, "pool_rebuilds", 0),
            "degraded_to_serial": bool(
                getattr(report, "degraded_to_serial", False)
            ),
        },
        "timings": {
            "wall_s": report.wall_s,
            "stage_run_s": stats.total_run_s,
            "stage_saved_s": stats.total_saved_s,
        },
        "fingerprints": {
            f"{c.resolution}/{c.orientation}": c.fingerprint
            for c in report.cells
        },
    }
    transport = getattr(report, "transport", None)
    if transport is not None:
        # Worker-pipe byte ledger of the zero-copy data plane: with
        # handle-passing, payloads stay small no matter how large the
        # artifacts get, and the CI validator can gate on it
        # (``check_run_artifacts.py --expect-transport``).
        manifest["transport"] = dict(transport.to_dict())
        manifest["transport"]["zero_copy_hits"] = stats.zero_copy_hits
        manifest["transport"]["mmap_bytes"] = stats.mmap_bytes
        manifest["transport"]["pickle_bytes"] = stats.pickle_bytes
    scheduler = getattr(report, "scheduler", None)
    if scheduler is not None:
        # Fleet-wide node-scheduling counters of the stage-granular
        # scheduler: proof of how many per-cell stage requests were
        # deduplicated into shared nodes (and that each scheduled node
        # executed exactly once, failures aside).  Its ``fleet`` block
        # also counts the cells cut off at admission from the finalize
        # memo (``cutoff_cells``), which request no stage at all.
        manifest["scheduler"] = scheduler.to_dict()
    if trace_path is not None:
        manifest["trace"] = {
            "path": str(trace_path),
            "spans": trace_spans,
        }
    if metrics is not None:
        manifest["metrics"] = metrics.to_dict()
    return manifest


def write_manifest(
    manifest: Dict[str, Any], path: Union[str, os.PathLike]
) -> Path:
    """Atomically write ``manifest`` as indented JSON; returns the path."""
    return _write_atomic(
        path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def read_manifest(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Schema-check a manifest document; returns a list of problems."""
    problems: List[str] = []
    for key in MANIFEST_REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"missing top-level key {key!r}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema is {manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    if not isinstance(manifest.get("cells"), list):
        problems.append("'cells' must be a list")
    else:
        for i, cell in enumerate(manifest["cells"]):
            for key in ("resolution", "orientation", "fingerprint",
                        "attempts"):
                if key not in cell:
                    problems.append(f"cells[{i}] missing {key!r}")
    if not isinstance(manifest.get("stages"), dict):
        problems.append("'stages' must be a dict")
    else:
        if "_cache" not in manifest["stages"]:
            problems.append("'stages' must always carry the '_cache' block")
        for name, entry in manifest["stages"].items():
            if name == "_cache":
                for key in ("integrity_failures", "store_failures"):
                    if key not in entry:
                        problems.append(f"stages._cache missing {key!r}")
                continue
            for key in ("hits", "misses", "run_s", "saved_s"):
                if key not in entry:
                    problems.append(f"stages[{name!r}] missing {key!r}")
    counters = manifest.get("counters")
    if not isinstance(counters, dict):
        problems.append("'counters' must be a dict")
    else:
        for key in ("cache_hits", "cache_misses", "integrity_failures",
                    "store_failures", "retries", "cells_ok", "cells_failed"):
            if key not in counters:
                problems.append(f"counters missing {key!r}")
    if not isinstance(manifest.get("fingerprints"), dict):
        problems.append("'fingerprints' must be a dict")
    transport = manifest.get("transport")
    if transport is not None:
        # Optional block (parallel runs only; serial sweeps have no pipe).
        if not isinstance(transport, dict):
            problems.append("'transport' must be a dict")
        else:
            for key in ("tasks", "payload_bytes", "result_bytes",
                        "max_task_bytes", "handle_tasks", "inline_tasks"):
                if key not in transport:
                    problems.append(f"transport missing {key!r}")
    scheduler = manifest.get("scheduler")
    if scheduler is not None:
        # Optional block (runs through the stage-granular scheduler).
        if not isinstance(scheduler, dict):
            problems.append("'scheduler' must be a dict")
        else:
            for key in ("dedupe", "stages", "totals"):
                if key not in scheduler:
                    problems.append(f"scheduler missing {key!r}")
            for name, entry in (scheduler.get("stages") or {}).items():
                for key in ("requested", "scheduled", "deduped", "executed"):
                    if key not in entry:
                        problems.append(
                            f"scheduler.stages[{name!r}] missing {key!r}"
                        )
            for key, value in (scheduler.get("fleet") or {}).items():
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        f"scheduler.fleet.{key} must be a non-negative "
                        f"int, got {value!r}"
                    )
    return problems
