#!/usr/bin/env python
"""Validate the artifacts of a traced sweep: trace JSONL + run manifest.

CI runs a small traced sweep and then this script, which fails the job
unless

- every trace row passes the span schema check,
- the manifest passes the manifest schema check,
- the span-derived per-stage cache totals agree exactly (hits/misses)
  and approximately (run_s) with the manifest's ``stages`` block,
- every cell fingerprint in the manifest also appears on a
  ``sweep.cell`` span in the trace,
- the manifest's ``scheduler.fleet.cutoff_cells`` (cells resolved at
  fleet admission from the finalize memo) is at most ``cells_ok``, and
  exactly that many ``sweep.cell`` spans carry ``cutoff: true``, each
  witnessing a manifest fingerprint,
- with ``--jobs > 1``, the merged trace carries spans from at least two
  distinct processes (proof the worker spans were shipped back) unless
  every ok cell was cut off (a resumed cell is a cut-off cell) - a
  cut-off cell computes nothing,
- with ``--baseline-manifest``, the per-cell fingerprints equal the
  baseline run's exactly (the scheduler-equivalence gate: a parallel
  stage-granular sweep must be bit-identical to the serial one),
- with ``--expect-scheduled STAGE=N``, the manifest's ``scheduler``
  block shows exactly ``N`` scheduled *and* executed nodes for that
  stage (proof the dedup is scheduled exactness, not cache-hit luck),
- with ``--expect-transport KEY>=N`` (also ``<=``, ``==``), the
  manifest's ``transport`` block satisfies the comparison - e.g.
  ``handle_tasks>=1`` proves the workers ran handle-passing, and
  ``max_task_bytes<=65536`` gates the zero-copy data plane's core
  claim that no voxel grid ever crosses the worker pipe.

Stdlib + repro only; run as::

    PYTHONPATH=src python scripts/check_run_artifacts.py \
        --trace t.jsonl --manifest sweep-manifest.json --jobs 2 \
        --baseline-manifest serial-manifest.json \
        --expect-scheduled tessellate=2 --expect-scheduled resolve=2 \
        --expect-transport handle_tasks>=1 \
        --expect-transport max_task_bytes<=65536
"""

from __future__ import annotations

import argparse
import sys

from repro.observability import export, manifest as manifest_mod


def check_baseline(doc: dict, baseline_path: str) -> list:
    """Fingerprint equality against another run's manifest."""
    problems = []
    baseline = manifest_mod.read_manifest(baseline_path)
    ours = doc.get("fingerprints", {})
    theirs = baseline.get("fingerprints", {})
    if not theirs:
        problems.append(
            f"baseline manifest {baseline_path} records no fingerprints"
        )
    for cell in sorted(set(ours) | set(theirs)):
        mine, other = ours.get(cell), theirs.get(cell)
        if mine != other:
            problems.append(
                f"cell {cell!r} fingerprint diverges from baseline: "
                f"{mine} != {other}"
            )
    return problems


def check_scheduled(doc: dict, expectations: list) -> list:
    """``scheduler`` block shows exactly N scheduled+executed nodes."""
    problems = []
    scheduler = doc.get("scheduler")
    if not isinstance(scheduler, dict):
        problems.append(
            "--expect-scheduled given but the manifest has no "
            "'scheduler' block"
        )
        return problems
    stages = scheduler.get("stages", {})
    for stage, expected in expectations:
        entry = stages.get(stage)
        if entry is None:
            problems.append(f"scheduler block has no stage {stage!r}")
            continue
        for key in ("scheduled", "executed"):
            if entry.get(key) != expected:
                problems.append(
                    f"scheduler {stage!r} {key}: expected {expected}, "
                    f"manifest says {entry.get(key)}"
                )
    return problems


#: Comparison operators accepted by ``--expect-transport``, longest
#: first so ``>=`` is tried before ``>`` would (wrongly) match.
_TRANSPORT_OPS = (
    (">=", lambda a, b: a >= b),
    ("<=", lambda a, b: a <= b),
    ("==", lambda a, b: a == b),
)


def check_transport(doc: dict, expectations: list) -> list:
    """``transport`` block satisfies every ``KEY(>=|<=|==)N`` gate."""
    problems = []
    transport = doc.get("transport")
    if not isinstance(transport, dict):
        problems.append(
            "--expect-transport given but the manifest has no "
            "'transport' block (serial run, or transport accounting "
            "was lost)"
        )
        return problems
    for key, op, expected, compare in expectations:
        actual = transport.get(key)
        if not isinstance(actual, (int, float)):
            problems.append(
                f"transport has no numeric counter {key!r} "
                f"(keys: {sorted(transport)})"
            )
            continue
        if not compare(actual, expected):
            problems.append(
                f"transport {key} is {actual}, expected {key} {op} {expected}"
            )
    return problems


def check(
    trace_path: str,
    manifest_path: str,
    jobs: int,
    baseline_manifest: str = None,
    expect_scheduled: list = (),
    expect_transport: list = (),
) -> list:
    problems = []

    rows = export.read_jsonl(trace_path)
    if not rows:
        problems.append(f"trace {trace_path} contains no spans")
    for i, row in enumerate(rows):
        for problem in export.validate_span_row(row):
            problems.append(f"trace row {i} ({row.get('name')!r}): {problem}")

    doc = manifest_mod.read_manifest(manifest_path)
    for problem in manifest_mod.validate_manifest(doc):
        problems.append(f"manifest: {problem}")

    # Span-derived per-stage totals must agree with the stats counters
    # the manifest recorded - the trace and the stats observe the same
    # cache.get code path, so any drift is an instrumentation bug.
    totals = export.stage_totals(rows)
    stages = doc.get("stages", {})
    for stage, span_side in sorted(totals.items()):
        stat_side = stages.get(stage)
        if stat_side is None:
            problems.append(f"stage {stage!r} traced but absent from manifest")
            continue
        for key in ("hits", "misses"):
            if span_side[key] != stat_side.get(key):
                problems.append(
                    f"stage {stage!r} {key}: trace says {span_side[key]}, "
                    f"manifest says {stat_side.get(key)}"
                )
        if abs(span_side["run_s"] - stat_side.get("run_s", 0.0)) > 0.25:
            problems.append(
                f"stage {stage!r} run_s: trace says {span_side['run_s']:.3f}, "
                f"manifest says {stat_side.get('run_s', 0.0):.3f}"
            )
    for stage, stat_side in stages.items():
        if stage == "_cache":
            continue
        if stage not in totals and (stat_side["hits"] or stat_side["misses"]):
            problems.append(f"stage {stage!r} in manifest but never traced")

    # Every final fingerprint must be witnessed by a sweep.cell span.
    span_fps = {
        row.get("attrs", {}).get("fingerprint")
        for row in rows
        if row.get("name") == "sweep.cell"
    }
    for cell, fp in sorted(doc.get("fingerprints", {}).items()):
        if fp not in span_fps:
            problems.append(
                f"fingerprint of cell {cell!r} not witnessed by any "
                f"sweep.cell span"
            )

    counters = doc.get("counters", {})
    cutoff = ((doc.get("scheduler") or {}).get("fleet") or {}).get(
        "cutoff_cells", 0
    )
    if cutoff > counters.get("cells_ok", 0):
        problems.append(
            f"scheduler.fleet.cutoff_cells is {cutoff}, more than "
            f"cells_ok {counters.get('cells_ok', 0)}"
        )
    cutoff_fps = [
        row.get("attrs", {}).get("fingerprint")
        for row in rows
        if row.get("name") == "sweep.cell"
        and row.get("attrs", {}).get("cutoff") is True
    ]
    if len(cutoff_fps) != cutoff:
        problems.append(
            f"{len(cutoff_fps)} sweep.cell span(s) carry cutoff: true, "
            f"but scheduler.fleet.cutoff_cells is {cutoff}"
        )
    manifest_fps = set(doc.get("fingerprints", {}).values())
    for fp in cutoff_fps:
        if fp not in manifest_fps:
            problems.append(
                f"cut-off sweep.cell span witnesses fingerprint {fp}, "
                f"which no manifest cell carries"
            )
    computed = counters.get("cells_ok", 0) - cutoff
    if jobs > 1 and computed > 0:
        # A fully cut-off (or fully resumed) run computes nothing, so it
        # legitimately traces one pid; any actually computed cell must
        # have left worker spans in the merged trace.
        pids = {row.get("pid") for row in rows}
        if len(pids) < 2:
            problems.append(
                f"--jobs {jobs} but the trace carries spans from only "
                f"{len(pids)} process(es) - worker spans were not merged"
            )

    if counters.get("cells_ok", 0) + counters.get("cells_failed", 0) == 0:
        problems.append("manifest records zero cells - nothing ran")

    if baseline_manifest is not None:
        problems.extend(check_baseline(doc, baseline_manifest))
    if expect_scheduled:
        problems.extend(check_scheduled(doc, expect_scheduled))
    if expect_transport:
        problems.extend(check_transport(doc, expect_transport))
    return problems


def _parse_expectation(text: str):
    stage, sep, count = text.partition("=")
    if not sep or not stage or not count.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected STAGE=N (e.g. tessellate=3), got {text!r}"
        )
    return stage, int(count)


def _parse_transport_expectation(text: str):
    for op, compare in _TRANSPORT_OPS:
        key, sep, count = text.partition(op)
        if sep and key and count.isdigit():
            return key, op, int(count), compare
    raise argparse.ArgumentTypeError(
        f"expected KEY>=N, KEY<=N or KEY==N "
        f"(e.g. handle_tasks>=1), got {text!r}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", required=True, help="JSONL trace path")
    parser.add_argument("--manifest", required=True, help="run manifest path")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker count the sweep ran with (enables the multi-pid check)",
    )
    parser.add_argument(
        "--baseline-manifest", default=None,
        help="manifest of an equivalent run whose per-cell fingerprints "
        "this run must reproduce exactly",
    )
    parser.add_argument(
        "--expect-scheduled", action="append", default=[],
        type=_parse_expectation, metavar="STAGE=N",
        help="assert the scheduler block shows exactly N scheduled and "
        "executed nodes for STAGE (repeatable)",
    )
    parser.add_argument(
        "--expect-transport", action="append", default=[],
        type=_parse_transport_expectation, metavar="KEY(>=|<=|==)N",
        help="assert a transport-block counter satisfies the comparison, "
        "e.g. handle_tasks>=1 or max_task_bytes<=65536 (repeatable)",
    )
    args = parser.parse_args(argv)
    problems = check(
        args.trace, args.manifest, args.jobs,
        baseline_manifest=args.baseline_manifest,
        expect_scheduled=args.expect_scheduled,
        expect_transport=args.expect_transport,
    )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"OK: trace {args.trace} and manifest {args.manifest} are "
          f"consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
