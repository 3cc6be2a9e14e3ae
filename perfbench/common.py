"""Shared pieces of the benchmark: grid, seeded inputs, reference checks,
process memory probes and the metric ledger every workload fills in."""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: The counterfeiter's 3 x 3 grid (service names; sweeps use the objects).
RESOLUTION_NAMES = ("coarse", "fine", "custom")
ORIENTATION_NAMES = ("x-y", "x-z", "y-z")
#: The paper's Table 2 orientations, over which the key-only-success
#: property is claimed.  y-z is plate-flat like x-y, prints genuine at
#: Fine/Custom, and is not part of the key, so the full 3 x 3 grid is
#: *not* key-only; the reference records that and the gate checks it.
PAPER_ORIENTATIONS = ("x-y", "x-z")
GENUINE = "genuine-grade"

#: Obfuscator seeds of the randomized-spline bars the sweep workloads
#: draw from; reference.json holds their serial in-memory fingerprints.
MODEL_POOL = tuple(range(8))


def grid_objects():
    """(resolutions, orientations) as repro objects, in grid order."""
    from repro.cad.resolution import COARSE, FINE, custom_resolution
    from repro.printer.orientation import PrintOrientation

    return [COARSE, FINE, custom_resolution()], [
        PrintOrientation(name) for name in ORIENTATION_NAMES
    ]


def pick_models(seed: int, count: int) -> List[int]:
    """The run's model seeds: ``count`` distinct pool entries, by seed."""
    return random.Random(seed).sample(MODEL_POOL, min(count, len(MODEL_POOL)))


def work_units(seconds: float, nominal_s: float, cap: int) -> int:
    """Fixed work count sized from ``--seconds`` at a nominal unit cost.

    The count depends only on the arguments, never on measured speed, so
    a faster or slower program does exactly the same work."""
    return max(1, min(cap, int(round(seconds / nominal_s))))


def import_seconds(modules: Sequence[str]) -> float:
    """Time importing ``modules`` in a fresh interpreter.

    The clock runs inside the child around the import statements only,
    so process creation and interpreter start-up stay out of it."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


# -- reference checks ---------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def key_only(rows: Iterable[Tuple[str, str, bool]],
             orientations: Optional[Sequence[str]] = None) -> bool:
    """Every genuine-grade attempt used the key (rows: orientation,
    grade, matches_key), optionally over a subset of orientations."""
    return all(
        matches
        for orientation, grade, matches in rows
        if grade == GENUINE
        and (orientations is None or orientation in orientations)
    )


def check_cells(ref_model: dict, cells: Dict[str, Tuple[str, str, bool]],
                what: str, key_only_full: Optional[bool] = None) -> List[str]:
    """Compare cells ``{"Fine/x-y": (fingerprint, grade, matches)}``
    with the reference; returns the problems found (empty = correct).

    ``key_only_full`` is the program's own key-only verdict over exactly
    these cells (``AttackResult.key_only_success`` or the service's
    ``key_only_success``); it must equal what the reference implies."""
    problems = []
    ref_cells = ref_model["cells"]
    for name, (fingerprint, grade, matches) in cells.items():
        ref = ref_cells.get(name)
        if ref is None:
            problems.append(f"{what}: cell {name} has no reference")
            continue
        if fingerprint != ref["fingerprint"]:
            problems.append(
                f"{what}: cell {name} fingerprint {fingerprint[:12]} != "
                f"reference {ref['fingerprint'][:12]}"
            )
        if grade != ref["grade"] or matches != ref["matches_key"]:
            problems.append(f"{what}: cell {name} graded {grade}/{matches}, "
                            f"reference {ref['grade']}/{ref['matches_key']}")
    rows = [(name.split("/")[1], grade, matches)
            for name, (_fp, grade, matches) in cells.items()]
    if not key_only(rows, PAPER_ORIENTATIONS):
        problems.append(f"{what}: a genuine-grade x-y/x-z attempt did not "
                        f"use the key (key-only success violated)")
    if key_only_full is not None:
        expected = key_only(
            (name.split("/")[1], ref_cells[name]["grade"],
             ref_cells[name]["matches_key"])
            for name in cells if name in ref_cells
        )
        if key_only_full != expected:
            problems.append(f"{what}: key_only_success {key_only_full}, "
                            f"reference implies {expected}")
    return problems


def attack_cells(result) -> Dict[str, Tuple[str, str, bool]]:
    """Cells of an :class:`AttackResult` in ``check_cells`` form."""
    fingerprints = {
        f"{c.resolution}/{c.orientation}": c.fingerprint
        for c in result.report.cells
    }
    return {
        f"{a.resolution}/{a.orientation}": (
            fingerprints[f"{a.resolution}/{a.orientation}"],
            a.report.grade.value,
            a.matches_key,
        )
        for a in result.attempts
    }


def distinct_nodes(cells) -> int:
    """Distinct (stage, digest) nodes across the cells' stage logs - the
    work a cold run of these cells must execute exactly once each."""
    return len({(ex.name, ex.digest) for c in cells for ex in c.stage_log})


# -- process memory -----------------------------------------------------------


def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def forked_children(pid) -> List[int]:
    """Live children of ``pid`` running its command line - the forked
    pool workers (helper processes such as the resource tracker run a
    different command and are left out)."""
    root = Path(f"/proc/{pid}")
    cmdline = (root / "cmdline").read_bytes()
    kids = []
    for task in (root / "task").iterdir():
        try:
            kids += [int(k) for k in (task / "children").read_text().split()]
        except OSError:
            continue
    same = []
    for kid in sorted(set(kids)):
        try:
            if Path(f"/proc/{kid}/cmdline").read_bytes() == cmdline:
                same.append(kid)
        except OSError:
            continue
    return same


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (exclusive method, as ``statistics``)."""
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


def beyond(count: int, pct: int) -> int:
    """Samples lying beyond the ``pct``-th percentile of ``count``."""
    return int(math.floor(count * (100 - pct) / 100.0))


# -- the ledger -----------------------------------------------------------------


class Ledger:
    """Metrics of one run plus its operation and correctness tally."""

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str, Optional[int]]] = {}
        self.notes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def put(self, name: str, value: float, unit: str,
            samples: Optional[int] = None, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, samples)
        if note:
            self.notes[name] = note

    def op(self, problems: Sequence[str] = ()) -> None:
        """Count one operation; it failed if it produced problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def problem(self, message: str) -> None:
        """A correctness problem not tied to one operation."""
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def render(self, names: Sequence[str]) -> List[str]:
        lines = [f"{'metric':34s} {'value':>16s} {'unit':8s} {'n':>6s}"]
        for name in names:
            value, unit, samples = self.metrics[name]
            n = "" if samples is None else str(samples)
            note = self.notes.get(name, "")
            lines.append(f"{name:34s} {value:16.6g} {unit:8s} {n:>6s}"
                         + (f"  ({note})" if note else ""))
        return lines

    def result(self, names: Sequence[str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        }
