#!/usr/bin/env python
"""Check the committed performance records against the repo benchmark.

``benchmarks/results/BENCH_perfbench.json`` is a list of records, one
per change, each holding alternating parent/change runs of
``perfbench/run.py`` and the per-metric summary computed from them.
This script fails unless, for every record,

- every recorded run (pairs, confirmation pairs, the traced pair and
  any other runs) is ``correct``;
- each workload is one ``BENCHMARK.json`` declares, and each summarized
  metric is one of its end-to-end metrics with the same unit,
  direction and bound;
- each metric's stored parent/change medians, inclusive-quartile IQRs,
  percentage change and win count equal the values recomputed from the
  runs, and its verdict is one of the known words;
- a claim, when present, names a recorded workload and metric.

It applies no timing gate: a slow host cannot fail it.  Stdlib only::

    python scripts/check_bench_records.py \\
        [--records benchmarks/results/BENCH_perfbench.json] \\
        [--benchmark BENCHMARK.json]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("better", "worse", "no change", "unresolved")


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def check_runs(where: str, runs) -> list:
    problems = []
    for run in runs:
        if run.get("correct") is not True:
            problems.append(
                f"{where}: run pair {run.get('pair')} seed "
                f"{run.get('seed')} ({run.get('side')}) is not correct"
            )
    return problems


def check_block(where: str, block: dict, declared: dict) -> list:
    """One set of alternating pairs with its per-metric summary."""
    runs = block.get("runs", [])
    problems = check_runs(where, runs) if runs else [f"{where}: no runs"]
    sides = {"parent": {}, "change": {}}
    for run in runs:
        side = sides.get(run.get("side"))
        if side is None:
            problems.append(f"{where}: run with side {run.get('side')!r}")
            continue
        side[run.get("pair")] = run.get("metrics", {})
    pairs = sorted(sides["parent"])
    if pairs != sorted(sides["change"]):
        problems.append(f"{where}: parent and change runs do not pair up")
        return problems
    if block.get("pairs") != len(pairs):
        problems.append(
            f"{where}: records pairs={block.get('pairs')}, "
            f"runs hold {len(pairs)}"
        )
    if block.get("all_correct") is not True:
        problems.append(f"{where}: all_correct is not true")
    metrics = block.get("metrics", {})
    if not metrics:
        problems.append(f"{where}: no metric summary")
    for name, stored in metrics.items():
        at = f"{where}/{name}"
        spec = declared.get(name)
        if spec is None:
            problems.append(f"{at}: not an end-to-end metric")
            continue
        for field in ("unit", "better", "bound"):
            if stored.get(field) != spec[field]:
                problems.append(
                    f"{at}: {field} {stored.get(field)!r} != "
                    f"BENCHMARK.json's {spec[field]!r}"
                )
        try:
            parent = [sides["parent"][p][name] for p in pairs]
            change = [sides["change"][p][name] for p in pairs]
        except KeyError:
            problems.append(f"{at}: missing from some run")
            continue
        higher = spec["better"] == "higher"
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(parent, change)
        )
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        expected = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": _iqr(parent),
            "change_iqr": _iqr(change),
            "change_pct": (change_median / parent_median - 1.0) * 100.0,
        }
        for field, value in expected.items():
            if not isinstance(stored.get(field), (int, float)) or not _close(
                stored[field], value
            ):
                problems.append(
                    f"{at}: {field} {stored.get(field)!r}, runs give {value!r}"
                )
        if stored.get("wins") != wins or stored.get("of") != len(pairs):
            problems.append(
                f"{at}: wins {stored.get('wins')}/{stored.get('of')}, "
                f"runs give {wins}/{len(pairs)}"
            )
        if stored.get("verdict") not in VERDICTS:
            problems.append(f"{at}: verdict {stored.get('verdict')!r}")
    return problems


def check_record(index: int, record: dict, benchmark: dict) -> list:
    where = f"record {index} ({record.get('change', '?')[:40]})"
    problems = []
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = {w["name"] for w in benchmark["workloads"]}
    blocks = record.get("workloads", {})
    if not blocks:
        problems.append(f"{where}: no workloads")
    for name, block in blocks.items():
        if name not in workloads or block.get("workload") != name:
            problems.append(f"{where}: unknown workload {name!r}")
        problems += check_block(f"{where}/{name}", block, declared)
    confirmation = record.get("confirmation_pairs")
    if confirmation is not None:
        problems += check_block(
            f"{where}/confirmation_pairs", confirmation, declared
        )
    traced = record.get("traced_pair")
    if traced is not None:
        for side, ok in traced.get("correct", {}).items():
            if ok is not True:
                problems.append(f"{where}: traced {side} run is not correct")
    problems += check_runs(f"{where}/other_runs",
                           record.get("other_runs", []))
    claim = record.get("claim")
    if claim is not None and (
        claim.get("workload") not in blocks
        or claim.get("metric") not in blocks[claim["workload"]]["metrics"]
    ):
        problems.append(f"{where}: claim names no recorded metric")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--records",
        default=str(ROOT / "benchmarks" / "results" / "BENCH_perfbench.json"),
    )
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        benchmark = json.load(fh)
    with open(args.records) as fh:
        records = json.load(fh)
    problems = []
    if not isinstance(records, list) or not records:
        problems.append("the records file is not a non-empty list")
        records = []
    for index, record in enumerate(records):
        problems += check_record(index, record, benchmark)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"OK: {len(records)} record(s) in {args.records}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
