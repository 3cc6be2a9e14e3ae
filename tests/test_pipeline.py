"""Tests for the staged process-chain engine (repro.pipeline).

Covers the three contract points of the refactor:

* the engine reproduces the legacy ``PrintJob`` chain bit-for-bit on
  the paper's protected tensile-bar scenario;
* a counterfeiter grid search over a shared cache performs each
  orientation-independent stage exactly once per resolution;
* cache keys invalidate when (and only when) resolution, orientation
  or upstream content changes.
"""

import numpy as np
import pytest

from repro.cad import COARSE, FINE, StlResolution
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.pipeline import ProcessChain
from repro.printer import PrintJob, PrintOrientation

#: Cheap non-preset resolutions for grid tests (coarse-class meshes).
MID = StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012)
LOOSE = StlResolution(name="Loose", angle_deg=25.0, deviation_fraction=0.0016)


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


def _legacy_print(machine, settings, model, resolution, orientation):
    """The pre-refactor PrintJob.print_model body, verbatim."""
    from repro.cad.body import ExtrudedBody
    from repro.cad.features import SplineSplitFeature
    from repro.printer.deposition import DepositionSimulator
    from repro.printer.firmware import PrinterFirmware
    from repro.printer.orientation import place_on_plate
    from repro.slicer.coincident import resolve_coincident_faces
    from repro.slicer.gcode import generate_gcode
    from repro.slicer.seams import analyze_split_seam
    from repro.slicer.slicer import slice_mesh
    from repro.slicer.toolpath import generate_toolpaths

    simulator = DepositionSimulator(machine, settings)
    export = model.export_stl(resolution)

    seam = None
    if any(isinstance(f, SplineSplitFeature) for f in model.features):
        extruded = [b for b in model.bodies() if isinstance(b, ExtrudedBody)]
        meshes = [export.body_meshes[b.name] for b in extruded]
        seam = analyze_split_seam(
            meshes[0], meshes[1], simulator.settings,
            orientation=orientation.transform,
        )

    resolved = resolve_coincident_faces(export.mesh)
    oriented = place_on_plate([resolved], orientation)[0]
    oriented = oriented.translated(np.array([10.0, 10.0, 0.0]))

    slices = slice_mesh(oriented, simulator.settings)
    toolpaths = generate_toolpaths(slices, simulator.settings)
    gcode = generate_gcode(toolpaths)
    firmware = PrinterFirmware(machine).run(gcode)
    artifact = simulator.build_from_slices(
        slices, oriented.bounds, seam=seam,
        metadata={"model": model.name},
    )
    return export, slices, gcode, firmware, seam, artifact


class TestLegacyEquivalence:
    """ProcessChain == the hard-wired chain, bit for bit."""

    def test_key_scenario_bit_for_bit(self, protected):
        """The paper's tensile-bar key print (Fine, x-y)."""
        chain = ProcessChain()
        out = chain.run(protected.model, FINE, PrintOrientation.XY)
        export, slices, gcode, firmware, seam, artifact = _legacy_print(
            chain.machine, chain.base_settings,
            protected.model, FINE, PrintOrientation.XY,
        )

        assert out.export.n_triangles == export.n_triangles
        assert np.array_equal(out.export.mesh.vertices, export.mesh.vertices)
        assert out.slices.n_layers == slices.n_layers
        assert out.gcode.n_lines == gcode.n_lines
        assert out.firmware.executed_moves == firmware.executed_moves
        assert out.firmware.total_extrusion_e == firmware.total_extrusion_e
        assert out.seam.bonded_fraction == seam.bonded_fraction
        assert out.seam.prints_discontinuity == seam.prints_discontinuity
        a, b = out.artifact, artifact
        assert a.model_volume_mm3 == b.model_volume_mm3
        assert a.support_volume_mm3 == b.support_volume_mm3
        assert a.void_volume_mm3 == b.void_volume_mm3
        assert a.surface_disruption_area_mm2 == b.surface_disruption_area_mm2
        assert a.weight_g == b.weight_g
        assert a.has_visible_seam == b.has_visible_seam
        assert np.array_equal(a.model, b.model)
        assert np.array_equal(a.support, b.support)

    def test_printjob_delegates_to_chain(self, protected):
        """The wrapper and the engine return identical outcomes.

        The deposit stage is stored bit-packed, so a hit materializes a
        fresh (equal, not identical) artifact; unpacked stages still
        share the cached object.
        """
        job = PrintJob()
        via_job = job.print_model(protected.model, COARSE, PrintOrientation.XZ)
        via_chain = job.chain.run(protected.model, COARSE, PrintOrientation.XZ)
        assert np.array_equal(via_job.artifact.model, via_chain.artifact.model)
        assert np.array_equal(via_job.artifact.voids, via_chain.artifact.voids)
        assert via_job.gcode is via_chain.gcode

    def test_warm_cache_returns_identical_artifacts(self, protected):
        chain = ProcessChain()
        cold = chain.run(protected.model, COARSE, PrintOrientation.XY)
        warm = chain.run(protected.model, COARSE, PrintOrientation.XY)
        assert all(s.cache_hit for s in warm.stage_log)
        for grid in ("model", "support", "weak", "voids"):
            assert np.array_equal(
                getattr(warm.artifact, grid), getattr(cold.artifact, grid)
            )
        assert warm.artifact.seam is cold.artifact.seam

    def test_metadata_matches_legacy_shape(self, protected):
        out = ProcessChain().run(protected.model, COARSE, PrintOrientation.XY)
        meta = out.artifact.metadata
        assert meta["model"] == protected.model.name
        assert meta["resolution"] == "Coarse"
        assert meta["orientation"] == "x-y"
        assert meta["split_spline"] is not None


class TestGridSearchCaching:
    """One shared cache across a whole (resolution x orientation) grid."""

    @pytest.fixture(scope="class")
    def grid(self, protected):
        chain = ProcessChain()
        sim = CounterfeiterSimulator(
            resolutions=(COARSE, MID, LOOSE),
            orientations=(
                PrintOrientation.XY,
                PrintOrientation.XZ,
                PrintOrientation.YZ,
            ),
            chain=chain,
        )
        return sim.attack(protected), chain

    def test_full_grid_attempted(self, grid):
        result, _ = grid
        assert result.n_attempts == 9

    def test_each_tessellation_exactly_once(self, grid):
        """3 resolutions x 3 orientations => exactly 3 tessellations;
        the other 6 cells share them as deduplicated nodes."""
        result, _ = grid
        stats = result.cache_stats.stages
        sched = result.report.scheduler.stages
        assert stats["tessellate"].misses == 3
        assert sched["tessellate"].executed == 3
        assert sched["tessellate"].deduped == 6
        # Coincident-face resolution is orientation-independent too.
        assert stats["resolve"].misses == 3
        assert sched["resolve"].executed == 3
        assert sched["resolve"].deduped == 6

    def test_orientation_dependent_stages_run_per_cell(self, grid):
        result, _ = grid
        stats = result.cache_stats.stages
        for stage in ("orient", "slice", "toolpath", "gcode", "firmware", "deposit"):
            assert stats[stage].misses == 9, stage
            assert stats[stage].hits == 0, stage

    def test_attack_result_reports_delta_not_lifetime(self, grid, protected):
        """A second search over the same grid recomputes nothing: every
        cell is answered from the chain's finalize memo."""
        result, chain = grid
        rerun = CounterfeiterSimulator(
            resolutions=(COARSE, MID, LOOSE),
            orientations=(
                PrintOrientation.XY,
                PrintOrientation.XZ,
                PrintOrientation.YZ,
            ),
            chain=chain,
        ).attack(protected)
        assert rerun.cache_stats.total_misses == 0
        assert rerun.report.scheduler.cutoff_cells == 9
        # Quality verdicts are unchanged by caching.
        assert rerun.summary_rows() == result.summary_rows()


class TestCacheInvalidation:
    def test_resolution_change_invalidates_tessellation(self, protected):
        chain = ProcessChain()
        chain.run(protected.model, COARSE, PrintOrientation.XY)
        out = chain.run(protected.model, MID, PrintOrientation.XY)
        by_name = {s.name: s for s in out.stage_log}
        assert not by_name["tessellate"].cache_hit
        assert not by_name["slice"].cache_hit

    def test_orientation_change_keeps_tessellation(self, protected):
        chain = ProcessChain()
        chain.run(protected.model, COARSE, PrintOrientation.XY)
        out = chain.run(protected.model, COARSE, PrintOrientation.XZ)
        by_name = {s.name: s for s in out.stage_log}
        assert by_name["tessellate"].cache_hit
        assert by_name["resolve"].cache_hit
        for stage in ("seam", "orient", "slice", "toolpath", "gcode", "deposit"):
            assert not by_name[stage].cache_hit, stage

    def test_model_content_invalidates_everything(self, protected):
        """Two different protected bars share nothing in the cache."""
        chain = ProcessChain()
        chain.run(protected.model, COARSE, PrintOrientation.XY)
        other = Obfuscator(seed=8).protect_tensile_bar(randomize=True)
        out = chain.run(other.model, COARSE, PrintOrientation.XY)
        assert not any(s.cache_hit for s in out.stage_log)

    def test_identical_content_shares_cache_across_models(self, protected):
        """Content addressing: an equal model built twice is all hits."""
        chain = ProcessChain()
        chain.run(protected.model, COARSE, PrintOrientation.XY)
        twin = Obfuscator(seed=99).protect_tensile_bar()  # randomize off
        out = chain.run(twin.model, COARSE, PrintOrientation.XY)
        assert all(s.cache_hit for s in out.stage_log)

    def test_stage_digests_are_distinct(self, protected):
        out = ProcessChain().run(protected.model, COARSE, PrintOrientation.XY)
        digests = [s.digest for s in out.stage_log]
        assert len(set(digests)) == len(digests)
