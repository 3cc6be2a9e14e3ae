"""Repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload sweep-disk --seed 1 --seconds 40 --trace 0

Workloads (README.md explains each):

* ``sweep-disk``  - ``ParallelSweep(jobs=2)`` cold then warm on a disk cache;
* ``service-warm`` - two closed-loop tenants against a pre-warmed ``serve``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced variant and prints the per-layer metrics.  Every run checks each
grid cell's outcome fingerprint against ``reference.json``.  A human
table goes first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when the run completed and every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("sweep-disk", "service-warm")
END_TO_END = ("cells_per_s", "jobs_per_s", "job_latency_p50_ms", "setup_s",
              "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import Ledger
    from perfbench.layers import PER_LAYER_NAMES

    # Scratch space inside the checkout, removed however the run ends.
    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    # Anything the program or a child puts in a temporary directory
    # stays inside the checkout too.
    os.environ["TMPDIR"] = str(work)
    ledger = Ledger()
    try:
        run_workload(args, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    names = PER_LAYER_NAMES if args.trace else END_TO_END
    missing = [name for name in names if name not in ledger.metrics]
    if missing:
        # Only a run that already failed stops before measuring.
        for problem in ledger.problems[:20] or [f"no value for {missing}"]:
            print(f"PROBLEM: {problem}")
        return 1
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced (per-layer)' if args.trace else 'untraced (end-to-end)'}")
    # Informational extras (such as an untraced run's warm rate) are
    # printed in the table but not reported.
    extras = [name for name in ledger.metrics if name not in names]
    for line in ledger.render(list(names) + extras):
        print(line)
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for problem in ledger.problems[:20]:
        print(f"PROBLEM: {problem}")
    print(json.dumps(ledger.result(names)), flush=True)
    return 0 if ledger.correct else 1


def run_workload(args, ledger, work: Path) -> None:
    from perfbench import service, sweeps

    if args.workload == "sweep-disk":
        run = sweeps.sweep_disk_traced if args.trace else sweeps.sweep_disk
        run(args.seed, args.seconds, ledger, work)
    else:
        service.service_warm(args.seed, args.seconds, ledger, work,
                             traced=bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
