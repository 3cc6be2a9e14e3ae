"""End-to-end print jobs: CAD model -> STL -> slices -> G-code -> artifact.

:class:`PrintJob` is the one-call API that walks a model through the
whole process chain of the paper's Fig. 1, under explicit process
conditions (STL resolution + print orientation) - the very conditions
that form an ObfusCADe manufacturing key.

Since the staged-engine refactor, ``PrintJob`` is a thin wrapper over
:class:`repro.pipeline.ProcessChain`: same API and bit-identical
outcomes, but each job keeps a content-addressed stage cache, so
re-printing the same model under overlapping conditions (a settings
sweep, the test fixtures, a benchmark session) reuses tessellations,
resolves and slices instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cad.model import CadModel, StlExport
from repro.cad.resolution import StlResolution
from repro.mesh.validate import GeometryReport
from repro.printer.firmware import FirmwareResult
from repro.printer.machines import DIMENSION_ELITE, MachineProfile
from repro.printer.orientation import PrintOrientation
from repro.printer.artifact import PrintedArtifact
from repro.slicer.gcode import GCodeProgram
from repro.slicer.seams import SeamReport
from repro.slicer.settings import SlicerSettings
from repro.slicer.slicer import SliceResult


@dataclass
class PrintOutcome:
    """Everything a print job produced."""

    artifact: PrintedArtifact
    export: StlExport
    slices: SliceResult
    gcode: GCodeProgram
    firmware: FirmwareResult
    seam: Optional[SeamReport]
    orientation: PrintOrientation
    resolution: StlResolution
    #: Manifold-geometry review, present when the chain ran its
    #: ``validate`` stage (``ProcessChain.run(..., validate=True)``).
    geometry: Optional[GeometryReport] = None
    #: Per-stage execution records (cache hits, wall time) of the run
    #: that produced this outcome.  Empty tuple for legacy callers.
    stage_log: Tuple = field(default=())

    @property
    def succeeded(self) -> bool:
        return self.firmware.completed


class PrintJob:
    """A configured printer ready to manufacture CAD models.

    Parameters mirror the legacy constructor; ``cache`` optionally
    shares a :class:`~repro.pipeline.StageCache` with other jobs or a
    whole grid search (see ``CounterfeiterSimulator``).
    """

    def __init__(
        self,
        machine: MachineProfile = DIMENSION_ELITE,
        settings: Optional[SlicerSettings] = None,
        raster_cell_mm: Optional[float] = None,
        cache=None,
    ):
        # Imported here (not at module top) to keep the import graph
        # acyclic: repro.pipeline.chain imports this module for
        # PrintOutcome.
        from repro.pipeline.chain import ProcessChain

        self.chain = ProcessChain(
            machine=machine,
            settings=settings,
            raster_cell_mm=raster_cell_mm,
            cache=cache,
        )
        self.machine = machine
        self.settings = self.chain.base_settings
        self.simulator = self.chain.simulator

    @property
    def cache(self):
        """The job's content-addressed stage cache."""
        return self.chain.cache

    def print_model(
        self,
        model: CadModel,
        resolution: StlResolution,
        orientation: PrintOrientation = PrintOrientation.XY,
    ) -> PrintOutcome:
        """Manufacture ``model`` under the given process conditions."""
        return self.chain.run(model, resolution, orientation)
