"""Row-packed PrintedArtifact: kernels, fingerprint, codec and memory shape.

Every packed path is checked against the boolean form it replaced: the
bool kernels in :mod:`repro.printer.deposition` and
:mod:`repro.slicer.support` (themselves pinned to ``ndimage``), the
full-grid outcome fingerprint and the full-volume ``cross_section``.
Deposit entries of the earlier flat cache codec must miss, not decode.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.cad.resolution import COARSE
from repro.pipeline.cache import StageCache
from repro.pipeline.chain import ProcessChain, _machine_key
from repro.pipeline.disk import DiskStageCache
from repro.pipeline.report import outcome_fingerprint
from repro.printer import artifact as artifact_mod
from repro.printer import deposition
from repro.printer.artifact import (
    GRID_NAMES,
    PrintedArtifact,
    VoxelMaterial,
    pack_rows,
    unpack_rows,
)
from repro.printer.machines import DIMENSION_ELITE
from repro.printer.orientation import PrintOrientation
from repro.slicer.support import support_columns as bool_support_columns

CROSS = ndimage.generate_binary_structure(2, 1)


def random_stack(seed, nz, ny, nx, density=0.45, last_column=False):
    rng = np.random.default_rng(seed)
    stack = rng.random((nz, ny, nx)) < density
    if last_column:
        # Rows set up to the last valid bit: the carry into the padding.
        stack[:, rng.random(ny) < 0.5, -1] = True
    return stack


def random_artifact(seed, shape, **kwargs):
    rng = np.random.default_rng(seed)
    grids = {name: rng.random(shape) < 0.4 for name in GRID_NAMES}
    return PrintedArtifact(
        machine=DIMENSION_ELITE,
        cell_mm=0.1,
        layer_height_mm=0.1778,
        origin=np.array([-1.0, 2.0]),
        **grids,
        **kwargs,
    )


def _ring(grid, y0, x0, y1, x1):
    """Draw the one-pixel outline of box ``[y0, y1] x [x0, x1]``."""
    grid[y0, x0:x1 + 1] = grid[y1, x0:x1 + 1] = True
    grid[y0:y1 + 1, x0] = grid[y0:y1 + 1, x1] = True


def _u_cup():
    """A U whose rim turns inwards: its inside is exterior, but no row
    or column through most of it reaches the frame."""
    grid = np.zeros((12, 21), dtype=bool)
    grid[2:10, 3] = grid[2:10, 17] = True      # walls
    grid[9, 3:18] = True                       # floor
    grid[2, 3:9] = grid[2, 12:18] = True       # inturned rim, gap 9..11
    return grid


def _spiral():
    """A square spiral wall: its corridor winds from the centre out to
    the frame, so the centre is exterior yet seen by no straight line."""
    n = 23
    grid = np.zeros((n, n), dtype=bool)
    lo, hi = 1, n - 2
    while hi - lo >= 4:
        grid[lo, lo:hi + 1] = True             # top
        grid[lo:hi + 1, hi] = True             # right
        grid[hi, lo:hi + 1] = True             # bottom
        grid[lo + 2:hi + 1, lo] = True         # left, open at the top
        grid[lo + 2, lo:lo + 3] = True         # step into the next turn
        lo, hi = lo + 2, hi - 2
    grid[1, 1:3] = False                       # entrance from the frame
    return grid


def _nested():
    """A hole holding an island that holds a hole of its own."""
    grid = np.zeros((17, 19), dtype=bool)
    grid[1:16, 1:18] = True
    grid[3:14, 3:16] = False                   # outer hole
    grid[5:12, 5:14] = True                    # island in it
    grid[7:10, 7:12] = False                   # inner hole
    return grid


def _two_clusters():
    """Two small rings at opposite corners of one wide layer."""
    grid = np.zeros((30, 69), dtype=bool)
    _ring(grid, 1, 1, 4, 5)
    _ring(grid, 24, 60, 28, 67)
    return grid


HOLE_SHAPES = {"u_cup": _u_cup, "spiral": _spiral, "nested": _nested,
               "two_clusters": _two_clusters}


stacks = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=70),
    st.floats(min_value=0.05, max_value=0.95),
    st.booleans(),
)


class TestPackedKernels:
    """Packed kernels == the bool oracles == ndimage, on odd tails too."""

    @given(stacks, st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_closing_matches_oracles(self, spec, iterations):
        seed, nz, ny, nx, density, last = spec
        stack = random_stack(seed, nz, ny, nx, density, last)
        ours = deposition._packed_closing(pack_rows(stack), nx, iterations)
        oracle = deposition._cross_closing(stack, iterations)
        np.testing.assert_array_equal(ours, pack_rows(oracle))
        for iz in range(nz):
            ref = ndimage.binary_closing(
                stack[iz], structure=CROSS, iterations=iterations
            )
            np.testing.assert_array_equal(unpack_rows(ours[iz], nx), ref)

    @given(stacks)
    @settings(max_examples=100, deadline=None)
    def test_holes_match_oracles(self, spec):
        seed, nz, ny, nx, density, last = spec
        stack = random_stack(seed, nz, ny, nx, density, last)
        ours = deposition._packed_holes(pack_rows(stack), nx)
        oracle = deposition._fill_holes_stack(stack) & ~stack
        np.testing.assert_array_equal(ours, pack_rows(oracle))
        for iz in range(nz):
            ref = ndimage.binary_fill_holes(stack[iz], structure=CROSS)
            np.testing.assert_array_equal(
                unpack_rows(ours[iz], nx), ref & ~stack[iz]
            )

    @given(stacks)
    @settings(max_examples=100, deadline=None)
    def test_line_extent_matches_bool_formula(self, spec):
        """Set voxel at or before *and* at or after, along each axis."""
        seed, nz, ny, nx, density, last = spec
        stack = random_stack(seed, nz, ny, nx, density / 3, last)
        for axis in range(3):
            before = np.logical_or.accumulate(stack, axis=axis)
            after = np.flip(np.logical_or.accumulate(
                np.flip(stack, axis=axis), axis=axis), axis=axis)
            np.testing.assert_array_equal(
                artifact_mod.line_extent(pack_rows(stack), axis),
                pack_rows(before & after),
            )

    @given(stacks)
    @settings(max_examples=100, deadline=None)
    def test_support_matches_oracle(self, spec):
        seed, nz, ny, nx, density, last = spec
        stack = random_stack(seed, nz + 2, ny, nx, density / 4, last)
        ours = deposition.support_columns(pack_rows(stack))
        np.testing.assert_array_equal(
            ours, pack_rows(bool_support_columns(stack))
        )


    @pytest.mark.parametrize("shape", sorted(HOLE_SHAPES))
    def test_holes_where_straight_lines_fail(self, shape):
        """Exterior background no straight line clears, and real holes.

        Each shape holds candidate pixels (inside their row's and
        column's solid extent); the packed fill must label them.
        """
        layer = HOLE_SHAPES[shape]()
        stack = np.stack([layer, np.zeros_like(layer), layer[::-1, ::-1]])
        nx = stack.shape[2]
        bits = pack_rows(stack)
        candidates = (~bits & artifact_mod.line_extent(bits, 2)
                      & artifact_mod.line_extent(bits, 1))
        assert candidates[0].any() and candidates[2].any()
        ours = deposition._packed_holes(bits, nx)
        oracle = deposition._fill_holes_stack(stack) & ~stack
        np.testing.assert_array_equal(ours, pack_rows(oracle))
        expected_holes = {"u_cup": 0, "spiral": 0, "nested": 2,
                          "two_clusters": 2}[shape]
        _, n_holes = ndimage.label(oracle[0], structure=CROSS)
        assert n_holes == expected_holes

    def test_holes_in_distinct_layer_crops(self):
        """Layers whose candidates sit in different boxes, one stack."""
        stack = np.zeros((4, 40, 45), dtype=bool)
        stack[0, 2:7, 2:7] = True
        stack[0, 4, 4] = False               # hole in the low corner
        stack[1, 30:38, 36:44] = True
        stack[1, 32:36, 38:42] = False       # hole at the far corner
        stack[2] = random_stack(7, 1, 40, 45, density=0.6)[0]
        stack[3, 10:30, 8:9] = True          # a wall: no candidate at all
        expected = pack_rows(deposition._fill_holes_stack(stack) & ~stack)
        got = deposition._packed_holes(pack_rows(stack), 45)
        np.testing.assert_array_equal(got, expected)
        assert got[0].any() and got[1].any() and not got[3].any()

    @pytest.mark.parametrize("nx", [1, 8, 13, 64, 70])
    def test_bead_merge_matches_bool_pipeline(self, nx):
        rng = np.random.default_rng(nx)
        pool = rng.random((3, 9, nx)) < 0.55
        raw = pool[rng.integers(0, 3, size=8)]  # repeated layers
        sim = deposition.DepositionSimulator(DIMENSION_ELITE, raster_cell_mm=0.1)
        model, weak, voids = sim._apply_bead_merge(pack_rows(raw), nx, 0.1)
        iterations = max(
            int(round(sim.settings.merge_gap_mm / (2.0 * 0.1))), 1
        )
        closed = deposition._cross_closing(raw, iterations)
        np.testing.assert_array_equal(model, pack_rows(closed))
        np.testing.assert_array_equal(weak, pack_rows(closed & ~raw))
        np.testing.assert_array_equal(
            voids, pack_rows(deposition._fill_holes_stack(closed) & ~closed)
        )


class TestPackedArtifact:
    def test_popcount(self):
        bits = np.random.default_rng(3).integers(0, 256, 5000, dtype=np.uint8)
        assert artifact_mod.popcount(bits) == int(np.unpackbits(bits).sum())

    def test_grids_roundtrip_and_are_read_only(self):
        shape = (3, 5, 13)
        rng = np.random.default_rng(11)
        grids = {name: rng.random(shape) < 0.5 for name in GRID_NAMES}
        art = PrintedArtifact(
            machine=DIMENSION_ELITE, cell_mm=0.1, layer_height_mm=0.1,
            origin=np.zeros(2), **grids,
        )
        assert art.shape == shape
        for name in GRID_NAMES:
            got = getattr(art, name)
            np.testing.assert_array_equal(got, grids[name])
            assert art.voxel_count(name) == int(grids[name].sum())
            assert art.packed(name).shape == (3, 5, 2)
            with pytest.raises(ValueError):
                got[0, 0, 0] = True

    def test_from_packed_rejects_dirty_padding(self):
        art = random_artifact(1, (2, 3, 13))
        grids = {name: art.packed(name).copy() for name in GRID_NAMES}
        grids["weak"][0, 0, -1] |= 0x01
        with pytest.raises(ValueError, match="padding"):
            PrintedArtifact.from_packed(
                machine=art.machine, shape=art.shape, grids=grids,
                cell_mm=art.cell_mm, layer_height_mm=art.layer_height_mm,
                origin=art.origin,
            )

    @pytest.mark.parametrize("shape", [(4, 7, 13), (3, 6, 16), (2, 9, 1)])
    def test_cross_section_matches_full_volume(self, shape):
        art = random_artifact(shape[2], shape)
        codes = np.zeros(shape, dtype=np.int8)
        codes[art.support] = int(VoxelMaterial.SUPPORT)
        codes[art.model] = int(VoxelMaterial.MODEL)
        nz, ny, nx = shape
        for axis, positions in (("y", (None, -5.0, 2.3, 99.0)),
                                ("x", (None, -5.0, -0.55, 99.0)),
                                ("z", (None, -1.0, 0.2, 99.0))):
            for position in positions:
                got = art.cross_section(axis, position)
                if axis == "y":
                    iy = ny // 2 if position is None else int(np.clip(
                        (position - art.origin[1]) / art.cell_mm, 0, ny - 1))
                    want = codes[:, iy, :]
                elif axis == "x":
                    ix = nx // 2 if position is None else int(np.clip(
                        (position - art.origin[0]) / art.cell_mm, 0, nx - 1))
                    want = codes[:, :, ix]
                else:
                    iz = nz // 2 if position is None else int(np.clip(
                        position / art.layer_height_mm, 0, nz - 1))
                    want = codes[iz]
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_region_fractions_match_bool_formula(self):
        art = random_artifact(5, (5, 11, 21))
        mask = np.random.default_rng(6).random(art.shape) < 0.3
        total = int(mask.sum())
        expected = {
            VoxelMaterial.MODEL: float((art.model & mask).sum()) / total,
            VoxelMaterial.SUPPORT: float((art.support & mask).sum()) / total,
            VoxelMaterial.EMPTY: float(
                (~art.model & ~art.support & mask).sum()) / total,
        }
        assert art.region_fractions(mask) == expected


def old_fingerprint(outcome) -> str:
    """The full-grid formula the streamed fingerprint must reproduce."""
    h = hashlib.sha256()
    artifact = outcome.artifact
    for grid in (artifact.model, artifact.support, artifact.weak, artifact.voids):
        a = np.ascontiguousarray(grid, dtype="<u1")
        h.update(np.array(a.shape, dtype="<i8").tobytes())
        h.update(a.tobytes())
    h.update(np.asarray(
        [artifact.cell_mm, artifact.layer_height_mm], dtype="<f8"
    ).tobytes())
    h.update("\n".join(outcome.gcode.lines).encode())
    h.update(np.asarray(
        [outcome.firmware.executed_moves, outcome.firmware.total_extrusion_e],
        dtype="<f8",
    ).tobytes())
    return h.hexdigest()


class _Outcome:
    def __init__(self, artifact):
        self.artifact = artifact
        self.gcode = type("G", (), {"lines": ["G1 X1", "G1 Y2 E0.5"]})()
        self.firmware = type(
            "F", (), {"executed_moves": 2, "total_extrusion_e": 0.5}
        )()


class TestFingerprint:
    @pytest.mark.parametrize(
        "shape", [(3, 5, 8), (3, 5, 13), (6, 4, 385), (2, 3, 1), (0, 4, 9)]
    )
    @pytest.mark.parametrize("slab_bytes", [1, 64, 1 << 22])
    def test_matches_full_grid_formula(self, shape, slab_bytes, monkeypatch):
        monkeypatch.setattr(artifact_mod, "_SLAB_BYTES", slab_bytes)
        outcome = _Outcome(random_artifact(sum(shape), shape))
        assert outcome_fingerprint(outcome) == old_fingerprint(outcome)

    def test_matches_on_a_real_print(self, split_coarse_xy):
        assert outcome_fingerprint(split_coarse_xy) == old_fingerprint(
            split_coarse_xy
        )


def legacy_pack(artifact):
    """The earlier deposit codec: each grid packed flat, not by row."""
    return {
        "grids": {
            name: np.packbits(getattr(artifact, name)) for name in GRID_NAMES
        },
        "shape": artifact.shape,
        "machine": artifact.machine,
        "cell_mm": artifact.cell_mm,
        "layer_height_mm": artifact.layer_height_mm,
        "origin": artifact.origin,
        "seam": artifact.seam,
        "metadata": artifact.metadata,
    }


def legacy_unpack(packed):
    """Inverse of :func:`legacy_pack`, as the earlier codec decoded."""
    shape = packed["shape"]
    count = int(np.prod(shape))
    grids = {
        name: np.unpackbits(bits, count=count).reshape(shape).view(bool)
        for name, bits in packed["grids"].items()
    }
    return PrintedArtifact(
        machine=packed["machine"],
        cell_mm=packed["cell_mm"],
        layer_height_mm=packed["layer_height_mm"],
        origin=packed["origin"],
        seam=packed["seam"],
        metadata=packed["metadata"],
        **grids,
    )


class FlatCodecChain(ProcessChain):
    """The chain as the earlier codec ran it: flat deposit entries under
    the deposit key of that release, which had no codec tag."""

    def _build_stages(self):
        def legacy_key(ctx):
            return (
                _machine_key(self.machine),
                self.simulator.raster_cell_mm,
                ctx.model.name,
                ctx.resolution.name,
                ctx.orientation,
            )

        return tuple(
            dataclasses.replace(stage, key=legacy_key, pack=legacy_pack,
                                unpack=legacy_unpack)
            if stage.name == "deposit" else stage
            for stage in super()._build_stages()
        )


class TestDepositCacheEntries:
    def test_tampered_packed_segment_quarantined(self, split_bar, tmp_path):
        def run(cache):
            outcome = ProcessChain(cache=cache).run(
                split_bar, COARSE, PrintOrientation.XY)
            hit = next(e.cache_hit for e in outcome.stage_log
                       if e.name == "deposit")
            return outcome_fingerprint(outcome), hit

        cold, _ = run(DiskStageCache(tmp_path))
        segments = sorted((tmp_path / "deposit").glob("*.seg*.npy"))
        assert len(segments) == len(GRID_NAMES)
        data = bytearray(segments[0].read_bytes())
        data[-1] ^= 0x01
        segments[0].write_bytes(bytes(data))

        fresh = DiskStageCache(tmp_path)
        fingerprint, hit = run(fresh)
        assert not hit and fingerprint == cold
        assert fresh.stats.integrity_failures == 1
        assert list((tmp_path / "quarantine").glob("deposit-*.npy"))
        assert run(DiskStageCache(tmp_path)) == (cold, True)

    def test_flat_entry_misses_and_is_recomputed(self, split_bar, tmp_path):
        # y-z: nx = 385, where flat and row-packed bytes differ, so a
        # flat entry read as row-packed would be a scrambled grid.
        def run(chain_cls):
            cache = DiskStageCache(tmp_path)
            outcome = chain_cls(cache=cache).run(
                split_bar, COARSE, PrintOrientation.YZ)
            deposit = next(e for e in outcome.stage_log
                           if e.name == "deposit")
            return outcome, deposit, cache

        old, old_deposit, _ = run(FlatCodecChain)
        assert old.artifact.shape[2] % 8 != 0
        new, deposit, cache = run(ProcessChain)
        assert not deposit.cache_hit
        assert deposit.digest != old_deposit.digest
        assert cache.disk_hits.get("slice") == 1
        assert outcome_fingerprint(new) == outcome_fingerprint(old)
        assert run(ProcessChain)[1].cache_hit


def _grid_buffers(cache: StageCache, key: str):
    """Distinct ndarray buffers the memory tier and decoded memo hold
    for ``key``, plus the decoded artifact."""
    arrays = []

    def walk(node):
        if isinstance(node, np.ndarray):
            arrays.append(node)
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                walk(value)

    packed = cache._entries[key]
    decoded = cache._decoded[key]
    walk(packed)
    walk(vars(decoded))
    distinct = []
    for array in arrays:
        if not any(np.shares_memory(array, seen) for seen in distinct):
            distinct.append(array)
    return packed, decoded, distinct


class TestMemoryShape:
    """A cached deposit costs its packed grids once, in every tier."""

    @staticmethod
    def _check(cache, key):
        packed, decoded, buffers = _grid_buffers(cache, key)
        nz, ny, nx = decoded.shape
        grid_bytes = sum(a.nbytes for a in buffers if a.ndim == 3)
        assert grid_bytes <= 4 * nz * ny * -(-nx // 8)
        for name in GRID_NAMES:
            assert np.shares_memory(decoded.packed(name),
                                    packed["grids"][name])

    def test_memory_then_disk(self, split_bar, tmp_path):
        def deposit_key(cache):
            chain = ProcessChain(cache=cache)
            outcome = chain.run(split_bar, COARSE, PrintOrientation.XY)
            key = next(e.digest for e in outcome.stage_log
                       if e.name == "deposit")
            return outcome, key

        memory = StageCache()
        outcome, key = deposit_key(memory)
        self._check(memory, key)
        assert memory._decoded[key] is outcome.artifact

        _, key_cold = deposit_key(DiskStageCache(tmp_path))
        warm = DiskStageCache(tmp_path)
        warm_outcome, key_warm = deposit_key(warm)
        assert key_cold == key_warm == key
        assert warm.disk_hits.get("deposit") == 1
        self._check(warm, key)
        assert outcome_fingerprint(warm_outcome) == outcome_fingerprint(
            outcome)


def old_surface_disruption(artifact) -> float:
    """``voids & dilate6(~binary_fill_holes(solid))``, in full volumes."""
    if not artifact.voids.any():
        return 0.0
    exterior = ~ndimage.binary_fill_holes(artifact.model | artifact.support)
    touch = artifact.voids & ndimage.binary_dilation(exterior)
    return float(touch.sum()) * artifact.cell_mm * artifact.cell_mm


class TestSurfaceDisruption:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_volume_formula(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 12)),
                 int(rng.integers(1, 30)))
        grids = {name: rng.random(shape) < p for name, p in
                 zip(GRID_NAMES, (0.6, 0.1, 0.1, 0.15))}
        art = PrintedArtifact(machine=DIMENSION_ELITE, cell_mm=0.1,
                              layer_height_mm=0.1, origin=np.zeros(2),
                              **grids)
        assert art.surface_disruption_area_mm2 == old_surface_disruption(art)

    def test_matches_on_a_real_print(self, split_coarse_xy):
        art = split_coarse_xy.artifact
        assert art.voxel_count("voids")
        assert art.surface_disruption_area_mm2 == old_surface_disruption(art)

    @staticmethod
    def _block_artifact(void_at, tunnel=()):
        """A solid block with one void voxel and an optional tunnel."""
        model = np.zeros((7, 9, 11), dtype=bool)
        model[1:6, 1:8, 1:10] = True
        voids = np.zeros_like(model)
        for voxel in (void_at, *tunnel):
            model[voxel] = False
        voids[void_at] = True
        zeros = np.zeros_like(model)
        return PrintedArtifact(machine=DIMENSION_ELITE, cell_mm=0.1,
                               layer_height_mm=0.1, origin=np.zeros(2),
                               model=model, support=zeros, weak=zeros,
                               voids=voids)

    @pytest.fixture
    def labelled(self, monkeypatch):
        """Counts the calls of the background labelling fallback."""
        calls = []
        original = artifact_mod._exterior_labels

        def spy(solid):
            calls.append(solid.shape)
            return original(solid)

        monkeypatch.setattr(artifact_mod, "_exterior_labels", spy)
        return calls

    def test_winding_path_takes_the_fallback(self, labelled):
        """The void reaches the exterior only by a tunnel that turns
        from x to y to z, so no straight line clears it or a neighbour."""
        tunnel = [(3, 4, 6), (3, 4, 7), (3, 3, 7), (3, 2, 7),
                  (4, 2, 7), (5, 2, 7)]
        art = self._block_artifact((3, 4, 5), tunnel)
        area = art.surface_disruption_area_mm2
        assert labelled
        assert area == old_surface_disruption(art) == 0.1 * 0.1

    def test_enclosed_void_takes_the_fallback(self, labelled):
        art = self._block_artifact((3, 4, 5))
        area = art.surface_disruption_area_mm2
        assert labelled
        assert area == old_surface_disruption(art) == 0.0

    def test_visible_void_skips_the_labelling(self, labelled):
        """A void one voxel under the top face: z clears its neighbour."""
        art = self._block_artifact((5, 4, 5))
        area = art.surface_disruption_area_mm2
        assert not labelled
        assert area == old_surface_disruption(art) == 0.1 * 0.1
