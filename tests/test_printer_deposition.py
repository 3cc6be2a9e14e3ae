"""Unit tests for repro.printer.deposition."""

import numpy as np
import pytest

from repro.cad.primitives import make_rect_prism
from repro.geometry.spline import SamplingTolerance
from repro.printer.deposition import DepositionSimulator
from repro.printer.machines import DIMENSION_ELITE
from repro.slicer.settings import SlicerSettings

TOL = SamplingTolerance(angle=np.deg2rad(10), deviation=0.05)


def plate_mesh(size, center=None):
    sx, sy, sz = size
    c = center or (sx / 2 + 5, sy / 2 + 5, sz / 2)
    return make_rect_prism(size, center=c).tessellate(TOL)


@pytest.fixture(scope="module")
def simulator():
    return DepositionSimulator(DIMENSION_ELITE, SlicerSettings(), raster_cell_mm=0.1)


class TestBasicDeposition:
    def test_block_volume(self, simulator):
        artifact = simulator.build(plate_mesh((10, 8, 4)))
        assert np.isclose(artifact.model_volume_mm3, 320.0, rtol=0.05)

    def test_no_support_for_flat_block(self, simulator):
        artifact = simulator.build(plate_mesh((10, 8, 4)))
        assert artifact.support_volume_mm3 == 0.0

    def test_no_voids_in_solid(self, simulator):
        artifact = simulator.build(plate_mesh((10, 8, 4)))
        assert artifact.void_volume_mm3 == 0.0
        assert not artifact.weak.any()

    def test_layer_height_from_machine(self, simulator):
        artifact = simulator.build(plate_mesh((10, 8, 4)))
        assert artifact.layer_height_mm == DIMENSION_ELITE.layer_height_mm
        assert artifact.model.shape[0] == int(np.ceil(4 / 0.1778))

    def test_below_plate_rejected(self, simulator):
        mesh = make_rect_prism((5, 5, 5)).tessellate(TOL)  # centred at origin
        with pytest.raises(ValueError):
            simulator.build(mesh)

    def test_oversized_part_rejected(self, simulator):
        mesh = plate_mesh((400, 10, 5))
        with pytest.raises(ValueError):
            simulator.build(mesh)


class TestBeadMerge:
    def build_two_blocks(self, simulator, gap):
        a = make_rect_prism((5, 8, 2), center=(12.5, 14, 1)).tessellate(TOL)
        b = make_rect_prism((5, 8, 2), center=(17.5 + gap, 14, 1)).tessellate(TOL)
        from repro.mesh.trimesh import TriangleMesh

        return simulator.build(TriangleMesh.merged([a, b]))

    def test_small_gap_bridges_as_weak(self, simulator):
        # Gap below the bridging reach (2 raster cells) but above one
        # cell, so it is resolved and then closed by bead squish.
        artifact = self.build_two_blocks(simulator, gap=0.15)
        assert artifact.weak.any()
        assert not artifact.voids.any()

    def test_large_gap_stays_open(self, simulator):
        artifact = self.build_two_blocks(simulator, gap=0.5)
        assert not artifact.weak.any()
        # A 0.5 mm canyon between blocks is open to the outside, not an
        # enclosed void, so the two bodies simply stay separate.
        from scipy import ndimage

        _, n = ndimage.label(artifact.model[0])
        assert n == 2

    def test_zero_gap_fuses_seamlessly(self, simulator):
        artifact = self.build_two_blocks(simulator, gap=0.0)
        from scipy import ndimage

        _, n = ndimage.label(artifact.model[0])
        assert n == 1


class TestSupport:
    def test_internal_void_gets_support(self, simulator):
        """A hollow part fills its cavity with soluble support."""
        from repro.cad.body import SphereBody
        from repro.mesh.trimesh import TriangleMesh

        shell = make_rect_prism((14, 14, 14), center=(12, 12, 7)).tessellate(TOL)
        cavity = SphereBody((12, 12, 7), 3.0, inward=True).tessellate(TOL)
        artifact = simulator.build(TriangleMesh.merged([shell, cavity]))
        assert artifact.support_volume_mm3 > 0
        expected = 4.0 / 3.0 * np.pi * 27.0
        assert np.isclose(artifact.support_volume_mm3, expected, rtol=0.15)

    def test_support_disabled(self):
        sim = DepositionSimulator(
            DIMENSION_ELITE, SlicerSettings(support="none"), raster_cell_mm=0.1
        )
        from repro.cad.body import SphereBody
        from repro.mesh.trimesh import TriangleMesh

        shell = make_rect_prism((14, 14, 14), center=(12, 12, 7)).tessellate(TOL)
        cavity = SphereBody((12, 12, 7), 3.0, inward=True).tessellate(TOL)
        artifact = sim.build(TriangleMesh.merged([shell, cavity]))
        assert artifact.support_volume_mm3 == 0.0


class TestUniqueLayers:
    """Hash-keyed layer dedup vs the scalar oracle."""

    def test_matches_loop_oracle_on_random_stacks(self):
        from repro.printer.deposition import (
            _unique_layers,
            _unique_layers_loop,
        )

        rng = np.random.default_rng(20260808)
        for _ in range(25):
            nz = int(rng.integers(1, 12))
            ny = int(rng.integers(1, 9))
            nx = int(rng.integers(1, 9))
            # Few distinct patterns so duplicates actually occur.
            pool = rng.random((3, ny, nx)) < 0.4
            stack = pool[rng.integers(0, 3, size=nz)]
            first, inverse = _unique_layers(stack)
            first_ref, inverse_ref = _unique_layers_loop(stack)
            np.testing.assert_array_equal(first, first_ref)
            np.testing.assert_array_equal(inverse, inverse_ref)
            # Reconstruction sanity: indexing uniques by inverse
            # restores the stack.
            np.testing.assert_array_equal(stack[first][inverse], stack)

        # Benchmark-shaped stacks: packed rows of 20-110 KB, where a
        # sort-based dedup is orders of magnitude slower than hashing.
        # A bar printed flat: one cross-section repeated between
        # distinct bottom and top layers, the top differing from it
        # in a single voxel at the very end of the row.
        layer = rng.random((385, 2304)) < 0.5
        top = layer.copy()
        top[-1, -1] = not top[-1, -1]
        flat = np.stack([~layer] + [layer] * 16 + [top])
        # A bar printed upright: ~60 % unique layers, repeats shuffled in.
        pool = rng.random((64, 68, 2304)) < 0.5
        upright = pool[rng.permutation(np.r_[np.arange(64), rng.integers(0, 64, 43)])]
        for stack, n_unique in ((flat, 3), (upright, 64)):
            first, inverse = _unique_layers(stack)
            first_ref, inverse_ref = _unique_layers_loop(stack)
            np.testing.assert_array_equal(first, first_ref)
            np.testing.assert_array_equal(inverse, inverse_ref)
            assert first.dtype == inverse.dtype == np.intp
            assert len(first) == n_unique

    def test_first_occurrence_order(self):
        from repro.printer.deposition import _unique_layers

        a = np.zeros((2, 2), dtype=bool)
        b = np.ones((2, 2), dtype=bool)
        stack = np.stack([b, a, b, a])
        first, inverse = _unique_layers(stack)
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 1])

    def test_single_layer(self):
        from repro.printer.deposition import _unique_layers

        stack = np.ones((1, 3, 3), dtype=bool)
        first, inverse = _unique_layers(stack)
        np.testing.assert_array_equal(first, [0])
        np.testing.assert_array_equal(inverse, [0])
