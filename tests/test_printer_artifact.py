"""Unit tests for repro.printer.artifact."""

import numpy as np
import pytest

from repro.printer.artifact import PrintedArtifact, VoxelMaterial
from repro.printer.machines import DIMENSION_ELITE, OBJET30_PRO


def make_artifact(nz=4, ny=10, nx=10, cell=0.5, layer=0.5, machine=DIMENSION_ELITE):
    shape = (nz, ny, nx)
    model = np.zeros(shape, dtype=bool)
    model[:, 2:8, 2:8] = True
    support = np.zeros(shape, dtype=bool)
    weak = np.zeros(shape, dtype=bool)
    voids = np.zeros(shape, dtype=bool)
    return PrintedArtifact(
        machine=machine,
        model=model,
        support=support,
        weak=weak,
        voids=voids,
        cell_mm=cell,
        layer_height_mm=layer,
        origin=np.zeros(2),
    )


def with_cells(artifact, **cells):
    """A copy of ``artifact`` with single cells of its grids overwritten.

    ``cells`` maps a grid name to ``(index, value)``; artifacts are
    immutable, so tests build the edited artifact instead of mutating.
    """
    grids = {}
    for name in ("model", "support", "weak", "voids"):
        grid = getattr(artifact, name).copy()
        if name in cells:
            index, value = cells[name]
            grid[index] = value
        grids[name] = grid
    return PrintedArtifact(
        machine=artifact.machine,
        cell_mm=artifact.cell_mm,
        layer_height_mm=artifact.layer_height_mm,
        origin=artifact.origin,
        **grids,
    )


class TestVolumes:
    def test_model_volume(self):
        a = make_artifact()
        # 4 layers x 36 cells x (0.5*0.5*0.5) mm^3
        assert np.isclose(a.model_volume_mm3, 4 * 36 * 0.125)

    def test_weight_model_only(self):
        a = make_artifact()
        expected = a.model_volume_mm3 / 1000.0 * 1.04
        assert np.isclose(a.weight_g, expected)

    def test_weight_includes_support(self):
        a = make_artifact()
        heavier = with_cells(a, support=((slice(None), 0, 0), True)).weight_g
        assert heavier > a.weight_g

    def test_porosity(self):
        a = make_artifact()
        assert a.porosity == 0.0
        a = with_cells(a, voids=((0, 3, 3), True), model=((0, 3, 3), False))
        assert a.porosity > 0


class TestQueries:
    def test_material_at(self):
        a = make_artifact()
        assert a.material_at(np.array([2.5, 2.5, 1.0])) is VoxelMaterial.MODEL
        assert a.material_at(np.array([0.1, 0.1, 0.1])) is VoxelMaterial.EMPTY
        assert a.material_at(np.array([100, 100, 100])) is VoxelMaterial.EMPTY

    def test_material_at_support(self):
        a = with_cells(make_artifact(), support=((0, 0, 0), True))
        assert a.material_at(np.array([0.1, 0.1, 0.1])) is VoxelMaterial.SUPPORT

    def test_region_fractions_sum_to_one(self):
        a = make_artifact()
        mask = np.ones_like(a.model)
        fractions = a.region_fractions(mask)
        assert np.isclose(sum(fractions.values()), 1.0)

    def test_region_fractions_empty_mask(self):
        a = make_artifact()
        fractions = a.region_fractions(np.zeros_like(a.model))
        assert all(v == 0.0 for v in fractions.values())

    def test_sphere_mask_size(self):
        a = make_artifact(nz=10, ny=20, nx=20, cell=0.25, layer=0.25)
        mask = a.sphere_mask(np.array([2.5, 2.5, 1.25]), 1.0, shrink=1.0)
        vol = mask.sum() * a.voxel_volume_mm3
        assert np.isclose(vol, 4.0 / 3.0 * np.pi, rtol=0.2)

    def test_sphere_region_material(self):
        a = make_artifact(nz=10, ny=20, nx=20, cell=0.5, layer=0.5)
        center = np.array([2.5, 2.5, 2.5])
        assert a.sphere_region_material(center, 1.5) is VoxelMaterial.MODEL


class TestSections:
    def test_cross_section_axes(self):
        a = make_artifact()
        assert a.cross_section("y").shape == (4, 10)
        assert a.cross_section("x").shape == (4, 10)
        assert a.cross_section("z").shape == (10, 10)
        with pytest.raises(ValueError):
            a.cross_section("w")

    def test_section_codes(self):
        a = make_artifact()
        section = a.cross_section("z")
        assert int(VoxelMaterial.MODEL) in section
        assert int(VoxelMaterial.EMPTY) in section

    def test_ascii_render(self):
        art = make_artifact().section_ascii("y", max_width=20)
        assert "#" in art


class TestWashing:
    def test_wash_removes_support(self):
        a = with_cells(make_artifact(), support=((slice(None), 0, 0), True))
        assert a.support_volume_mm3 > 0.0
        washed = a.washed()
        assert washed.support_volume_mm3 == 0.0
        assert np.isclose(washed.model_volume_mm3, a.model_volume_mm3)
        assert washed.metadata.get("washed") is True

    def test_wash_requires_soluble(self):
        insoluble = OBJET30_PRO.support_material.__class__(
            name="epoxy", density_g_cm3=1.0, soluble=False
        )
        machine = DIMENSION_ELITE.__class__(
            name="m",
            technology="FDM",
            layer_height_mm=0.2,
            bead_width_mm=0.5,
            build_volume_mm=(100, 100, 100),
            model_material=DIMENSION_ELITE.model_material,
            support_material=insoluble,
        )
        a = make_artifact(machine=machine)
        with pytest.raises(ValueError):
            a.washed()


class TestConstruction:
    def test_mismatched_grids_raise(self):
        with pytest.raises(ValueError):
            PrintedArtifact(
                machine=DIMENSION_ELITE,
                model=np.zeros((2, 2, 2), dtype=bool),
                support=np.zeros((2, 2, 3), dtype=bool),
                weak=np.zeros((2, 2, 2), dtype=bool),
                voids=np.zeros((2, 2, 2), dtype=bool),
                cell_mm=0.1,
                layer_height_mm=0.1,
                origin=np.zeros(2),
            )
