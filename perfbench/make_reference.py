"""Regenerate ``reference.json``: serial in-memory fingerprints per cell.

Every model the benchmark can draw (the randomized-spline bars of
``MODEL_POOL`` plus the service's fixed bar) is attacked over the 3 x 3
grid by a serial ``CounterfeiterSimulator`` with an in-memory cache -
the reference path the paper's results come from.  Run from the repo
root (takes a few minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench.common import (  # noqa: E402
    MODEL_POOL,
    REFERENCE_PATH,
    attack_cells,
    grid_objects,
)
from repro.mesh.content_hash import model_digest  # noqa: E402
from repro.obfuscade.attack import CounterfeiterSimulator  # noqa: E402
from repro.obfuscade.obfuscator import Obfuscator  # noqa: E402


def reference_entry(protected) -> dict:
    resolutions, orientations = grid_objects()
    result = CounterfeiterSimulator(
        resolutions=resolutions, orientations=orientations
    ).attack(protected)
    if result.failed:
        raise SystemExit(f"reference attack failed: {result.failed}")
    return {
        "digest": model_digest(protected.model),
        "key_only_success": result.key_only_success,
        "cells": {
            name: {"fingerprint": fp, "grade": grade, "matches_key": matches}
            for name, (fp, grade, matches) in attack_cells(result).items()
        },
    }


def main() -> int:
    doc = {"sweep_models": {}, "service_model": None}
    for seed in MODEL_POOL:
        print(f"model seed {seed} ...", flush=True)
        doc["sweep_models"][str(seed)] = reference_entry(
            Obfuscator(seed).protect_tensile_bar(randomize=True)
        )
    # The service builds Obfuscator(seed).protect_tensile_bar() for any
    # payload seed: the default spline, the same geometry for every seed.
    print("service model ...", flush=True)
    doc["service_model"] = reference_entry(
        Obfuscator(0).protect_tensile_bar()
    )
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
