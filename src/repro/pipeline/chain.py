"""The staged process-chain engine (paper Fig. 1, made explicit).

Legacy :class:`~repro.printer.job.PrintJob` hard-wired the chain
CAD -> STL -> slice -> toolpath -> G-code -> deposit -> inspect inside
one method, so every consumer re-ran everything from scratch.  Here the
chain is one tuple of :class:`~repro.pipeline.stage.Stage` objects,
declared in execution order (:attr:`ProcessChain.stages`; each stage's
inputs are the ``"model"`` root or earlier stages), and executed
through a content-addressed :class:`~repro.pipeline.cache.StageCache`:

``tessellate``
    model content hash x STL resolution -> :class:`StlExport`.
    Orientation-independent, which is the big win for grid searches.
``validate``
    manifold-geometry review of the export mesh (on demand).
``seam``
    split-seam analysis of the body meshes under one orientation.
``resolve``
    coincident-face resolution of the export mesh (orientation-
    independent as well).
``orient``
    plate placement + margin under one orientation.
``slice`` / ``toolpath`` / ``gcode`` / ``firmware``
    slicing, raster toolpaths, G-code generation and the firmware run.
``deposit``
    the voxel deposition that yields the :class:`PrintedArtifact`.

Each stage's cache key chains the upstream artifacts' content
addresses with the stage parameters, so two runs share exactly the
prefix of the chain on which they agree - e.g. nine
(3 resolutions x 3 orientations) counterfeit attempts perform three
tessellations, three resolves, and nine of everything downstream of
``orient``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro import observability as obs
from repro.cad.body import ExtrudedBody
from repro.cad.features import SplineSplitFeature
from repro.cad.model import CadModel, StlExport
from repro.cad.resolution import StlResolution
from repro.mesh.content_hash import model_digest
from repro.mesh.trimesh import TriangleMesh
from repro.mesh.validate import (
    GeometryReport,
    require_finite_mesh,
    validate_mesh,
)
from repro.pipeline.cache import CacheStats, StageCache
from repro.pipeline.graph import node_digest, run_stage
from repro.pipeline.stage import Stage, StageExecution
from repro.printer.artifact import (
    PrintedArtifact,
    pack_artifact,
    unpack_artifact,
)
from repro.printer.deposition import DepositionSimulator
from repro.printer.firmware import FirmwareResult, PrinterFirmware
from repro.printer.job import PrintOutcome
from repro.printer.machines import DIMENSION_ELITE, MachineProfile
from repro.printer.orientation import PrintOrientation, place_on_plate
from repro.slicer.coincident import resolve_coincident_faces
from repro.slicer.gcode import (
    GCodeProgram,
    generate_gcode,
    pack_gcode,
    unpack_gcode,
)
from repro.slicer.seams import SeamReport, analyze_split_seam
from repro.slicer.settings import SlicerSettings
from repro.slicer.slicer import SliceResult, slice_mesh
from repro.slicer.toolpath import (
    ToolpathStack,
    generate_toolpaths,
    pack_toolpaths,
    unpack_toolpaths,
)

#: Clearance between the part and the plate origin, mm (legacy PrintJob).
PLATE_MARGIN_MM = 10.0


@dataclass
class ChainArtifacts:
    """Typed artifact store of one chain run.

    Replaces the stringly-keyed ``Dict[str, Any]`` the context used to
    carry: every stage's artifact is a named, typed field, so a typo'd
    stage name or a mis-typed artifact fails at the store, not three
    stages downstream.  ``None`` means "not produced (yet)" - except
    for :attr:`seam`, whose producing stage legitimately emits ``None``
    for models without a split feature.
    """

    tessellate: Optional[StlExport] = None
    validate: Optional[GeometryReport] = None
    seam: Optional[SeamReport] = None
    resolve: Optional[TriangleMesh] = None
    orient: Optional[TriangleMesh] = None
    slice: Optional[SliceResult] = None
    #: The slicer's tool paths, column-wise (a sequence of
    #: ``ToolpathLayer`` views).
    toolpath: Optional[ToolpathStack] = None
    gcode: Optional[GCodeProgram] = None
    firmware: Optional[FirmwareResult] = None
    deposit: Optional[PrintedArtifact] = None

    def get(self, name: str) -> Any:
        if name not in self.__dataclass_fields__:
            raise KeyError(f"unknown chain artifact {name!r}")
        return getattr(self, name)

    def set(self, name: str, value: Any) -> None:
        if name not in self.__dataclass_fields__:
            raise KeyError(f"unknown chain artifact {name!r}")
        setattr(self, name, value)


@dataclass
class ChainContext:
    """Mutable state of one chain run: inputs plus produced artifacts."""

    chain: "ProcessChain"
    model: CadModel
    resolution: StlResolution
    orientation: PrintOrientation
    artifacts: ChainArtifacts = field(default_factory=ChainArtifacts)
    digests: Dict[str, str] = field(default_factory=dict)

    def artifact(self, name: str) -> Any:
        return self.artifacts.get(name)

    def outcome(self, stage_log: Tuple = ()) -> PrintOutcome:
        """The :class:`~repro.printer.job.PrintOutcome` assembled from
        this run's artifacts."""
        a = self.artifacts
        return PrintOutcome(
            artifact=a.deposit,
            export=a.tessellate,
            slices=a.slice,
            gcode=a.gcode,
            firmware=a.firmware,
            seam=a.seam,
            orientation=self.orientation,
            resolution=self.resolution,
            geometry=a.validate,
            stage_log=stage_log,
        )


def _resolution_key(resolution: StlResolution) -> tuple:
    return (
        resolution.name,
        resolution.angle_deg,
        resolution.deviation_fraction,
        resolution.min_deviation_mm,
    )


def _settings_key(settings: SlicerSettings) -> tuple:
    return dataclasses.astuple(settings)


def _machine_key(machine: MachineProfile) -> tuple:
    return (
        machine.name,
        machine.layer_height_mm,
        machine.bead_width_mm,
        tuple(machine.build_volume_mm),
    )


def _has_split(model: CadModel) -> bool:
    return any(isinstance(f, SplineSplitFeature) for f in model.features)


def _split_body_meshes(model: CadModel, export):
    """The two split-body meshes from an export, in feature order."""
    bodies = model.bodies()
    extruded = [b for b in bodies if isinstance(b, ExtrudedBody)]
    if len(extruded) != 2:
        return None
    meshes = []
    for body in extruded:
        mesh = export.body_meshes.get(body.name)
        if mesh is None:
            return None
        meshes.append(mesh)
    return meshes


# -- stage run functions ------------------------------------------------------


def _run_tessellate(ctx: ChainContext):
    export = ctx.model.export_stl(ctx.resolution)
    export = faults.mutate_export("stage.tessellate.output", export)
    # Gate non-finite geometry at the source: a NaN/Inf vertex (CAD bug
    # or dr0wned-style sabotage) must fail loudly here, not propagate
    # into the slicer as silently wrong toolpaths.
    require_finite_mesh(
        export.mesh, what=f"tessellation of {ctx.model.name!r}"
    )
    return export


def _run_validate(ctx: ChainContext):
    return validate_mesh(ctx.artifact("tessellate").mesh)


def _run_seam(ctx: ChainContext):
    if not _has_split(ctx.model):
        return None
    export = ctx.artifact("tessellate")
    split_meshes = _split_body_meshes(ctx.model, export)
    if split_meshes is None:
        return None
    return analyze_split_seam(
        split_meshes[0],
        split_meshes[1],
        ctx.chain.settings,
        orientation=ctx.orientation.transform,
    )


def _run_resolve(ctx: ChainContext):
    return resolve_coincident_faces(ctx.artifact("tessellate").mesh)


def _run_orient(ctx: ChainContext):
    oriented = place_on_plate([ctx.artifact("resolve")], ctx.orientation)[0]
    margin = ctx.chain.plate_margin_mm
    return oriented.translated(np.array([margin, margin, 0.0]))


def _run_slice(ctx: ChainContext):
    return slice_mesh(ctx.artifact("orient"), ctx.chain.settings)


def _run_toolpath(ctx: ChainContext):
    return generate_toolpaths(ctx.artifact("slice"), ctx.chain.settings)


def _run_gcode(ctx: ChainContext):
    return generate_gcode(ctx.artifact("toolpath"))


def _run_firmware(ctx: ChainContext):
    return PrinterFirmware(ctx.chain.machine).run(ctx.artifact("gcode"))


def _run_deposit(ctx: ChainContext):
    metadata: Dict[str, object] = {
        "model": ctx.model.name,
        "resolution": ctx.resolution.name,
        "orientation": ctx.orientation.value,
        "machine": ctx.chain.machine.name,
    }
    for feat in ctx.model.features:
        if isinstance(feat, SplineSplitFeature):
            metadata["split_spline"] = feat.spline
    return ctx.chain.simulator.build_from_slices(
        ctx.artifact("slice"),
        ctx.artifact("orient").bounds,
        seam=ctx.artifact("seam"),
        metadata=metadata,
    )


class ProcessChain:
    """Composable, cached execution of the canonical print chain.

    Drop-in substrate for :class:`~repro.printer.job.PrintJob`: the
    same (machine, settings, raster cell) configuration, the same
    :class:`~repro.printer.job.PrintOutcome` result, but every stage is
    memoized in a content-addressed cache that can be shared across
    runs, jobs and whole settings sweeps.
    """

    def __init__(
        self,
        machine: MachineProfile = DIMENSION_ELITE,
        settings: Optional[SlicerSettings] = None,
        raster_cell_mm: Optional[float] = None,
        cache: Optional[StageCache] = None,
        plate_margin_mm: float = PLATE_MARGIN_MM,
    ):
        self.machine = machine
        self.base_settings = settings or SlicerSettings()
        self.simulator = DepositionSimulator(machine, self.base_settings, raster_cell_mm)
        #: Effective slicer settings (machine layer height applied).
        self.settings = self.simulator.settings
        self.plate_margin_mm = plate_margin_mm
        self.cache = cache if cache is not None else StageCache()
        #: The chain, in execution order: every stage's inputs are the
        #: ``"model"`` root or stages declared before it.
        self.stages: Tuple[Stage, ...] = self._build_stages()
        self.by_name: Dict[str, Stage] = {s.name: s for s in self.stages}

    # -- stages --------------------------------------------------------------

    def _build_stages(self) -> Tuple[Stage, ...]:
        settings_key = _settings_key(self.settings)
        machine_key = _machine_key(self.machine)
        margin = self.plate_margin_mm
        return (
            Stage(
                "tessellate",
                ("model",),
                _run_tessellate,
                lambda ctx: _resolution_key(ctx.resolution),
            ),
            Stage(
                "validate",
                ("tessellate",),
                _run_validate,
                lambda ctx: (),
            ),
            Stage(
                "seam",
                ("tessellate",),
                _run_seam,
                lambda ctx: (ctx.orientation, settings_key),
            ),
            Stage(
                "resolve",
                ("tessellate",),
                _run_resolve,
                lambda ctx: (),
            ),
            Stage(
                "orient",
                ("resolve",),
                _run_orient,
                lambda ctx: (ctx.orientation, margin),
            ),
            Stage(
                "slice",
                ("orient",),
                _run_slice,
                lambda ctx: settings_key,
            ),
            Stage(
                "toolpath",
                ("slice",),
                _run_toolpath,
                # Codec tag: pickled ``ToolpathLayer`` lists of the
                # earlier layout live under other keys.
                lambda ctx: (settings_key, "columns"),
                pack=pack_toolpaths,
                unpack=unpack_toolpaths,
            ),
            Stage(
                "gcode",
                ("toolpath",),
                _run_gcode,
                lambda ctx: (),
                pack=pack_gcode,
                unpack=unpack_gcode,
            ),
            Stage(
                "firmware",
                ("gcode",),
                _run_firmware,
                lambda ctx: machine_key,
            ),
            Stage(
                "deposit",
                # ``orient`` is a real input (the deposition reads its
                # bounds); declaring it keeps the content address honest
                # instead of relying on ``slice`` to transitively cover
                # it.
                ("slice", "seam", "orient"),
                _run_deposit,
                lambda ctx: (
                    machine_key,
                    self.simulator.raster_cell_mm,
                    ctx.model.name,
                    ctx.resolution.name,
                    ctx.orientation,
                    # Codec of the cached grids: entries of the earlier
                    # flat ``np.packbits`` layout live under other keys.
                    "rows",
                ),
                pack=pack_artifact,
                unpack=unpack_artifact,
            ),
        )

    # -- execution -----------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Per-stage hit/miss/timing counters of the shared cache."""
        return self.cache.stats

    def run(
        self,
        model: CadModel,
        resolution: StlResolution,
        orientation: PrintOrientation = PrintOrientation.XY,
        validate: bool = False,
    ):
        """Manufacture ``model`` under the given process conditions.

        Byte-compatible with legacy ``PrintJob.print_model``; the extra
        ``validate`` flag additionally runs the manifold-geometry
        review stage and attaches its report to the outcome.
        """
        ctx = ChainContext(
            chain=self,
            model=model,
            resolution=resolution,
            orientation=orientation,
        )
        ctx.digests["model"] = model_digest(model)
        cell = f"{resolution.name}/{orientation.value}"

        with obs.span(
            "chain.run",
            model=model.name,
            model_digest=ctx.digests["model"][:12],
            resolution=resolution.name,
            orientation=orientation.value,
            cell=cell,
        ):
            log = self._run_stages(ctx, cell, validate)

        return ctx.outcome(stage_log=tuple(log))

    def _run_stages(
        self, ctx: ChainContext, cell: str, validate: bool
    ) -> List[StageExecution]:
        """Execute the chain's stages for one run, in declared order.

        Every node goes through the single execution boundary
        (:func:`repro.pipeline.graph.run_stage`): fault site, trace
        span, cache lookup, typed error wrapping.
        """
        log: List[StageExecution] = []
        for stage in self.stages:
            if stage.name == "validate" and not validate:
                continue
            digest = node_digest(stage, ctx, ctx.digests)
            value, hit, seconds = run_stage(
                self.cache, stage, digest, ctx, cell
            )
            log.append(StageExecution(stage.name, digest, hit, seconds))
            ctx.artifacts.set(stage.name, value)
            ctx.digests[stage.name] = digest
        return log
