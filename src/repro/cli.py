"""Command-line interface: the ObfusCADe toolbox.

Subcommands
-----------
``protect``
    Create a protected tensile bar, export its STL at the key
    resolution and write the manufacturing key to a JSON file.
``print``
    Virtually manufacture an STL file and report the printed artifact
    (volume, weight, defects).
``inspect``
    Run the STL-stage manifold-geometry review on a file.
``attack``
    Demonstrate the counterfeiter grid search on a protected bar.
``sweep``
    Settings-space sweep on the staged process-chain engine: print a
    protected bar under every (resolution x orientation) cell with one
    shared stage cache; ``--stats`` reports per-stage timings and
    cache hit rates.
``reverse``
    Reverse-engineer per-layer geometry from a G-code file (the
    ref [20] attack) and estimate the part volume.
``serve``
    Long-lived multi-tenant job service over the sweep engine: each
    HTTP submission is queued as its own job with admission control,
    duplicate work is deduped in the fleet scheduler, and every job
    reuses one warm worker pool and disk cache.
``taxonomy`` / ``risks``
    Print the paper's Fig. 2 attack taxonomy / Table 1 risk matrix.

Example::

    repro-obfuscade protect --seed 7 --out bar.stl --key-out key.json
    repro-obfuscade print bar.stl --orientation x-y
    repro-obfuscade inspect bar.stl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.mesh.stl_io import load_stl, save_stl
from repro.mesh.validate import validate_mesh
from repro.printer.deposition import DepositionSimulator
from repro.printer.orientation import place_on_plate
from repro.slicer.coincident import resolve_coincident_faces
from repro.vocabulary import MACHINES, ORIENTATIONS, RESOLUTIONS


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    """The tracing/metrics flags shared by the chain-running commands."""
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL span trace of the run to FILE (one span per "
        "line; worker-process spans are merged in)",
    )
    p.add_argument(
        "--trace-chrome",
        default=None,
        metavar="FILE",
        help="also write the trace as Chrome trace_event JSON, loadable "
        "in chrome://tracing or Perfetto",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters and latency histograms during the run and "
        "print a summary afterwards",
    )


def _executor_parent() -> argparse.ArgumentParser:
    """Parent parser: the executor flags shared by ``sweep``, ``attack``
    and ``serve`` (one definition, one help text, one validation path)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 fans the merged stage graph out over "
        "a shared on-disk stage cache (identical results, lower "
        "wall-clock)",
    )
    parent.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk stage-cache directory, used at any --jobs (reuses "
        "artifacts across invocations); when omitted, a --jobs 1 "
        "sweep or attack caches in memory, anything else in a "
        "temporary directory",
    )
    parent.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per scheduled node for transient failures (I/O "
        "errors, timeouts), with exponential backoff",
    )
    parent.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per scheduled node; a node over budget "
        "fails its cell with CellTimeout (and is retried if "
        "--max-retries allows)",
    )
    parent.add_argument(
        "--keep-going",
        action="store_true",
        help="complete the grid around failed cells and report them, "
        "instead of aborting at the first failure",
    )
    return parent


def _sweep_executor_parent() -> argparse.ArgumentParser:
    """Parent parser of ``sweep`` and ``attack``: the executor flags
    plus resume, statistics, tracing and the run manifest (``serve``
    writes per-job manifests and traces of its own)."""
    parent = argparse.ArgumentParser(add_help=False, parents=[_executor_parent()])
    parent.add_argument(
        "--resume",
        action="store_true",
        help="cut off every cell an earlier run over --cache-dir already "
        "finalized (crash recovery); requires --cache-dir",
    )
    parent.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage timings, cache hit rates, scheduler "
        "dedup counters, transport bytes, and cache integrity/store "
        "failure counters",
    )
    _add_observability_args(parent)
    parent.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a JSON run manifest to PATH (defaults to "
        "<cache-dir>/sweep-manifest.json when --cache-dir is given, "
        "or <trace>.manifest.json when only --trace is given)",
    )
    return parent


def _validate_executor_args(args):
    """Validate the shared executor flags (and ``--resume`` where the
    command has it).

    Returns ``(cache_dir, retry)`` or ``None`` after printing a usage
    error (the caller exits 2).
    """
    from repro.pipeline import RetryPolicy

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return None
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return None
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        print("--cell-timeout must be positive", file=sys.stderr)
        return None
    if getattr(args, "resume", False) and args.cache_dir is None:
        print("--resume requires --cache-dir", file=sys.stderr)
        return None
    retry = (
        RetryPolicy(max_attempts=args.max_retries + 1, backoff_s=0.1)
        if args.max_retries
        else None
    )
    return args.cache_dir, retry


def _write_sweep_manifest(
    args, command, result, protected, resolutions, orientations, spans,
    tracer, extra_config=None,
):
    """Resolve the manifest path and write the run manifest, if any."""
    import os

    manifest_path = args.manifest
    if manifest_path is None and args.cache_dir is not None:
        manifest_path = os.path.join(args.cache_dir, "sweep-manifest.json")
    if manifest_path is None and args.trace is not None:
        manifest_path = args.trace + ".manifest.json"
    if manifest_path is None or result.report is None:
        return
    from repro.mesh.content_hash import model_digest
    from repro.observability import manifest as manifest_mod

    config = {
        "command": command,
        "seed": args.seed,
        "resolutions": [r.name for r in resolutions],
        "orientations": [o.value for o in orientations],
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "max_retries": args.max_retries,
        "cell_timeout_s": args.cell_timeout,
        "keep_going": args.keep_going,
        "resume": args.resume,
        "dedupe": True,
    }
    config.update(extra_config or {})
    doc = manifest_mod.sweep_manifest(
        result.report,
        model_name=protected.model.name,
        model_digest=model_digest(protected.model),
        config=config,
        trace_path=args.trace,
        trace_spans=len(spans) if spans is not None else None,
        metrics=tracer.metrics if tracer is not None else None,
    )
    manifest_mod.write_manifest(doc, manifest_path)
    print(f"run manifest: {manifest_path}")


def _print_executor_stats(args, result, tracer) -> None:
    """The shared ``--stats`` / ``--metrics`` epilogue."""
    if args.stats:
        print()
        if result.cache_stats is not None:
            for line in result.cache_stats.render():
                print(line)
        report = result.report
        if report is not None and report.scheduler is not None:
            print()
            for line in report.scheduler.render():
                print(line)
        if report is not None and report.transport is not None:
            for line in report.transport.render():
                print(line)
        print(f"failed cells: {result.n_failed}")
    if args.metrics and tracer is not None and tracer.metrics is not None:
        print()
        for line in tracer.metrics.render():
            print(line)


def _install_observability(args):
    """Arm a process-wide tracer when any tracing output was requested."""
    if not (args.trace or args.trace_chrome or args.metrics):
        return None
    from repro import observability as obs

    metrics = obs.MetricsRegistry() if args.metrics else None
    return obs.install(obs.Tracer(metrics=metrics))


def _finish_observability(args, tracer):
    """Disarm the tracer and export the requested trace files.

    Returns the drained span rows (dicts) so callers can feed them to
    the run manifest.  Safe to call with ``tracer is None``.
    """
    if tracer is None:
        return None
    from repro import observability as obs
    from repro.observability import export

    obs.uninstall()
    spans = [s.to_dict() for s in tracer.drain()]
    if args.trace:
        export.write_jsonl(spans, args.trace)
        print(f"trace: {len(spans)} spans -> {args.trace}")
    if args.trace_chrome:
        export.write_chrome_trace(spans, args.trace_chrome)
        print(f"trace: chrome trace_event -> {args.trace_chrome}")
    return spans


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obfuscade",
        description="ObfusCADe: CAD-model obfuscation against counterfeiting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protect", help="protect a tensile bar and export it")
    p.add_argument("--seed", type=int, default=None, help="spline randomisation seed")
    p.add_argument("--out", required=True, help="output STL path")
    p.add_argument("--key-out", default=None, help="manufacturing key JSON path")
    p.add_argument(
        "--resolution",
        choices=sorted(RESOLUTIONS),
        default="fine",
        help="export resolution (the key permits fine/custom)",
    )

    p = sub.add_parser("print", help="virtually manufacture an STL file")
    p.add_argument("stl", help="input STL path")
    p.add_argument("--orientation", choices=sorted(ORIENTATIONS), default="x-y")
    p.add_argument("--machine", choices=sorted(MACHINES), default="fdm")
    p.add_argument("--raster-cell", type=float, default=0.1, help="voxel cell, mm")

    p = sub.add_parser("inspect", help="manifold-geometry review of an STL")
    p.add_argument("stl", help="input STL path")

    executor_parent = _sweep_executor_parent()
    p = sub.add_parser(
        "attack",
        help="counterfeiter grid-search demo",
        parents=[executor_parent],
    )
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "sweep",
        help="settings-space sweep on the staged process-chain engine",
        parents=[executor_parent],
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--resolutions",
        default="coarse,fine,custom",
        help="comma-separated subset of coarse/fine/custom",
    )
    p.add_argument(
        "--orientations",
        default="x-y,x-z",
        help="comma-separated subset of x-y/x-z/y-z (y-z is plate-flat "
        "like x-y and is key-equivalent in practice)",
    )
    p.add_argument("--machine", choices=sorted(MACHINES), default="fdm")

    p = sub.add_parser("reverse", help="reconstruct geometry from G-code")
    p.add_argument("gcode", help="input G-code path")

    p = sub.add_parser(
        "serve",
        help="multi-tenant obfuscation job service (versioned /v1 "
        "HTTP/JSON API, one job per submission, concurrent cross-job "
        "fleet scheduling with node dedup and a warm worker pool)",
        parents=[_executor_parent()],
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8035, help="bind port (0 = ephemeral)"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission limit: queued jobs beyond this are rejected with "
        "a structured 429 (identical submissions count like any other)",
    )
    p.add_argument(
        "--max-tenant-queued",
        type=int,
        default=0,
        help="per-tenant queued-job quota (0 = unlimited); tenants are "
        "served weighted-fair regardless",
    )
    p.add_argument(
        "--max-concurrent-jobs",
        type=int,
        default=1,
        help="jobs admitted into the fleet scheduler at once; "
        "overlapping concurrent jobs share (stage, digest) nodes "
        "across job and tenant boundaries",
    )
    p.add_argument(
        "--tenant-weight",
        action="append",
        default=[],
        metavar="TENANT=WEIGHT",
        help="weighted fair-share for a tenant (repeatable; default "
        "weight 1.0), e.g. --tenant-weight gold=4 --tenant-weight "
        "bronze=0.5",
    )
    p.add_argument(
        "--out-dir",
        default=None,
        help="directory for per-job run manifests and span traces "
        "(default <cache-dir>/runs)",
    )

    sub.add_parser("taxonomy", help="print the Fig. 2 attack taxonomy")
    sub.add_parser("risks", help="print the Table 1 risk matrix")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "protect": _cmd_protect,
        "print": _cmd_print,
        "inspect": _cmd_inspect,
        "attack": _cmd_attack,
        "sweep": _cmd_sweep,
        "reverse": _cmd_reverse,
        "serve": _cmd_serve,
        "taxonomy": _cmd_taxonomy,
        "risks": _cmd_risks,
    }[args.command]
    return handler(args)


def _cmd_protect(args) -> int:
    from repro.obfuscade.obfuscator import Obfuscator

    protected = Obfuscator(seed=args.seed).protect_tensile_bar(
        randomize=args.seed is not None
    )
    export = protected.model.export_stl(RESOLUTIONS[args.resolution])
    size = save_stl(export.mesh, args.out, name=protected.model.name)
    print(f"wrote {args.out}: {export.n_triangles} triangles, {size} bytes")
    print(f"protection: {protected.describe()}")
    if args.key_out:
        key = protected.key
        payload = {
            "resolutions": sorted(key.resolutions),
            "orientation": key.orientation.value,
            "cad_recipe": list(key.cad_recipe),
        }
        with open(args.key_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote manufacturing key to {args.key_out}")
    return 0


def _cmd_print(args) -> int:
    mesh = load_stl(args.stl)
    machine = MACHINES[args.machine]
    orientation = ORIENTATIONS[args.orientation]
    resolved = resolve_coincident_faces(mesh)
    oriented = place_on_plate([resolved], orientation)[0]
    import numpy as np

    oriented = oriented.translated(np.array([10.0, 10.0, 0.0]))
    simulator = DepositionSimulator(machine, raster_cell_mm=args.raster_cell)
    artifact = simulator.build(oriented)
    print(f"machine      : {machine.name}")
    print(f"orientation  : {orientation.value}")
    print(f"layers       : {artifact.shape[0]}")
    print(f"model volume : {artifact.model_volume_mm3:.1f} mm^3")
    print(f"support      : {artifact.support_volume_mm3:.1f} mm^3")
    print(f"weight       : {artifact.weight_g:.2f} g (with support)")
    print(f"voids        : {artifact.void_volume_mm3:.2f} mm^3")
    print(f"disruption   : {artifact.surface_disruption_area_mm2:.2f} mm^2")

    # Embedded-feature scan: a split wall shows as faces bounding a
    # thin interior slot; its tilt against the layers predicts the
    # weak interlayer joint of x-z printing.
    from repro.mesh.validate import find_internal_faces

    internal = find_internal_faces(resolved)
    seam_warning = False
    if len(internal):
        wall = oriented.submesh(internal)
        areas = wall.face_areas()
        abs_nz = abs(wall.face_normals()[:, 2])
        interlayer = float(areas[abs_nz > 0.7].sum() / areas.sum())
        print(
            f"internal wall: {float(areas.sum()):.1f} mm^2 embedded surface "
            f"({len(internal)} faces, {interlayer:.0%} lying along the layers)"
        )
        seam_warning = True
    defective = artifact.has_visible_seam or seam_warning
    print(f"visible seam : {artifact.has_visible_seam}")
    return 0 if not defective else 2


def _cmd_inspect(args) -> int:
    from repro.mesh.content_hash import mesh_digest

    mesh = load_stl(args.stl)
    report = validate_mesh(mesh)
    print(f"vertices={report.n_vertices} faces={report.n_faces} "
          f"components={report.n_components} euler={report.euler_characteristic}")
    print(f"content hash: sha256:{mesh_digest(mesh)}")
    if report.is_clean:
        print("geometry review: CLEAN")
        return 0
    print("geometry review: ISSUES FOUND")
    for issue in report.issues:
        print(f"  - {issue}")
    return 2


def _cmd_attack(args) -> int:
    validated = _validate_executor_args(args)
    if validated is None:
        return 2
    return _run_counterfeiter(args, "attack", "attacking", validated)


def _cmd_sweep(args) -> int:
    from repro.pipeline import ProcessChain

    try:
        resolutions = [
            RESOLUTIONS[name.strip()]
            for name in args.resolutions.split(",")
            if name.strip()
        ]
        orientations = [
            ORIENTATIONS[name.strip()]
            for name in args.orientations.split(",")
            if name.strip()
        ]
    except KeyError as exc:
        print(f"unknown sweep setting: {exc.args[0]}", file=sys.stderr)
        return 2
    if not resolutions or not orientations:
        print("sweep needs at least one resolution and one orientation",
              file=sys.stderr)
        return 2
    validated = _validate_executor_args(args)
    if validated is None:
        return 2
    return _run_counterfeiter(
        args, "sweep", "sweeping", validated,
        extra_config={"machine": args.machine},
        resolutions=resolutions,
        orientations=orientations,
        chain=ProcessChain(machine=MACHINES[args.machine]),
    )


def _run_counterfeiter(
    args, command, verb, validated, extra_config=None, **grid
) -> int:
    """The body ``attack`` and ``sweep`` share: run the counterfeiter
    over the protected bar, print its rows and failures, then write the
    manifest and stats.  ``grid`` overrides the simulator's default
    resolutions, orientations and chain."""
    from repro.obfuscade.attack import CounterfeiterSimulator
    from repro.obfuscade.obfuscator import Obfuscator
    from repro.pipeline import SweepAborted

    cache_dir, retry = validated
    protected = Obfuscator(seed=args.seed).protect_tensile_bar()
    print(f"{verb}: {protected.describe()}")
    sim = CounterfeiterSimulator(
        jobs=args.jobs,
        cache_dir=cache_dir,
        retry=retry,
        cell_timeout_s=args.cell_timeout,
        keep_going=args.keep_going,
        resume=args.resume,
        **grid,
    )
    tracer = _install_observability(args)
    try:
        result = sim.attack(protected)
    except SweepAborted as exc:
        print(f"{command} aborted: {exc}", file=sys.stderr)
        print("(re-run with --keep-going to complete around failed cells)",
              file=sys.stderr)
        return 3
    finally:
        spans = _finish_observability(args, tracer)
    if command == "sweep":
        n_res, n_orient = len(sim.resolutions), len(sim.orientations)
        print(f"grid: {n_res} resolutions x {n_orient} "
              f"orientations = {n_res * n_orient} cells"
              + (f"  (jobs={args.jobs})" if args.jobs > 1 else ""))
    for resolution, orientation, grade, score, matches in result.summary_rows():
        marker = " <-- key" if matches else ""
        print(f"  {resolution:8s} {orientation:5s} {grade:20s} {score:5.2f}{marker}")
    for err in result.failed:
        where = f" in stage {err.stage!r}" if err.stage else ""
        print(f"  {err.resolution:8s} {err.orientation:5s} FAILED "
              f"[{err.error_type}]{where} after {err.attempts} attempt(s)")
    print(f"genuine only under the key: {result.key_only_success}")
    _write_sweep_manifest(
        args, command, result, protected, sim.resolutions,
        sim.orientations, spans, tracer, extra_config=extra_config,
    )
    _print_executor_stats(args, result, tracer)
    if result.failed:
        return 1
    return 0 if result.key_only_success else 1


def _cmd_reverse(args) -> int:
    from repro.slicer.gcode import parse_gcode
    from repro.slicer.reverse import reconstruct_layers
    from repro.slicer.settings import SlicerSettings

    with open(args.gcode) as fh:
        moves = parse_gcode(fh.read())
    layers = reconstruct_layers(moves)
    if not layers:
        print("no printable layers found in the program")
        return 2
    total_area = sum(l.outline_area_mm2 for l in layers)
    heights = [b.z - a.z for a, b in zip(layers, layers[1:])]
    layer_h = min((h for h in heights if h > 1e-6), default=SlicerSettings().layer_height_mm)
    print(f"layers reconstructed : {len(layers)}")
    print(f"layer height         : {layer_h:.4f} mm")
    print(f"perimeter loops      : {sum(len(l.loops) for l in layers)}")
    print(f"mean layer area      : {total_area / len(layers):.1f} mm^2")
    print(f"volume estimate      : {total_area * layer_h:.1f} mm^3")
    print("IP recovered: the part's full layer geometry is in this output.")
    return 0


def _cmd_serve(args) -> int:
    import tempfile

    from repro.service import ObfuscadeService, ServiceServer

    validated = _validate_executor_args(args)
    if validated is None:
        return 2
    if not 0 <= args.port <= 65535:
        print(f"error: --port must be 0-65535, got {args.port}",
              file=sys.stderr)
        return 2
    if args.queue_depth < 1:
        print("error: --queue-depth must be >= 1", file=sys.stderr)
        return 2
    if args.max_tenant_queued < 0:
        print("error: --max-tenant-queued must be >= 0 (0 = unlimited)",
              file=sys.stderr)
        return 2
    if args.max_concurrent_jobs < 1:
        print("error: --max-concurrent-jobs must be >= 1", file=sys.stderr)
        return 2
    tenant_weights = {}
    for spec in args.tenant_weight:
        tenant, sep, weight = spec.partition("=")
        try:
            parsed = float(weight) if sep else None
        except ValueError:
            parsed = None
        if not tenant or parsed is None or parsed <= 0:
            print(f"error: --tenant-weight needs TENANT=WEIGHT with a "
                  f"positive weight, got {spec!r}", file=sys.stderr)
            return 2
        tenant_weights[tenant] = parsed
    cache_dir, retry = validated
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-service-cache-")
        cache_dir = tmp.name
        print(f"no --cache-dir given; using throwaway cache {cache_dir}")
    service = ObfuscadeService(
        cache_dir=cache_dir,
        out_dir=args.out_dir,
        jobs=args.jobs,
        max_concurrent_jobs=args.max_concurrent_jobs,
        queue_depth=args.queue_depth,
        max_tenant_queued=args.max_tenant_queued,
        tenant_weights=tenant_weights or None,
        retry=retry,
        cell_timeout_s=args.cell_timeout,
        keep_going=args.keep_going,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    service.start()
    print(f"obfuscade service listening on {server.url}")
    print(f"cache: {cache_dir}")
    print(f"runs : {service.out_dir}")
    print("endpoints: POST /v1/jobs; GET /v1/jobs/<id>[/result?wait=S], "
          "/v1/healthz, /v1/metrics; DELETE /v1/jobs/<id>")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        service.stop()
        if tmp is not None:
            tmp.cleanup()
    return 0


def _cmd_taxonomy(_args) -> int:
    from repro.supplychain.taxonomy import render_tree

    print(render_tree())
    return 0


def _cmd_risks(_args) -> int:
    from repro.supplychain.risks import RISK_REGISTER

    for row in RISK_REGISTER.as_table():
        print(f"[{row['AM stage']}]")
        print(f"  risks      : {row['Description of applicable cybersecurity risks']}")
        print(f"  mitigations: {row['Potential risk-mitigation strategies']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
