"""Voxel deposition simulation: slices + support -> printed artifact.

The simulator rasterizes every layer's even-odd interior onto a fixed
frame, then applies the bead-merge rule: within-layer gaps up to the
merge tolerance are bridged by bead squish (marked *weak*), wider gaps
stay open (marked *voids*).  Support material is deposited by the
smart-support column rule.  This is the substitution for the paper's
physical printers; DESIGN.md explains why it preserves the observed
behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.mesh.trimesh import TriangleMesh
from repro.printer.artifact import (
    PrintedArtifact,
    line_extent,
    pack_rows,
    shift_in_higher,
    shift_in_lower,
    tail_mask,
    unpack_rows,
)
from repro.printer.machines import MachineProfile
from repro.slicer.raster import rasterize_stack
from repro.slicer.seams import SeamReport
from repro.slicer.settings import SlicerSettings
from repro.slicer.slicer import slice_mesh


class DepositionSimulator:
    """Builds a :class:`PrintedArtifact` from an oriented, resolved mesh."""

    def __init__(
        self,
        machine: MachineProfile,
        settings: Optional[SlicerSettings] = None,
        raster_cell_mm: Optional[float] = None,
    ):
        self.machine = machine
        base = settings or SlicerSettings()
        # The machine's physical layer height wins over the slicer default.
        self.settings = base.with_layer_height(machine.layer_height_mm)
        self.raster_cell_mm = raster_cell_mm or self.settings.raster_cell_mm

    def build(
        self,
        mesh: TriangleMesh,
        seam: Optional[SeamReport] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> PrintedArtifact:
        """Print ``mesh`` (build coordinates, resting on z=0).

        ``seam`` attaches a split-seam analysis to the artifact so the
        mechanics lab can reason about the defect; it does not change
        the deposition itself (the voxel grids capture the geometry).
        """
        bounds = mesh.bounds
        if float(bounds.lo[2]) < -1e-6:
            raise ValueError("mesh must rest on the build plate (min z >= 0)")
        slices = slice_mesh(mesh, self.settings)
        return self.build_from_slices(slices, bounds, seam=seam, metadata=metadata)

    def build_from_slices(
        self,
        slices,
        bounds,
        seam: Optional[SeamReport] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> PrintedArtifact:
        """Print from precomputed slices (avoids re-slicing in pipelines)."""
        if not self.machine.fits(bounds.size):
            raise ValueError(
                f"part {bounds.size} does not fit {self.machine.name} build volume"
            )
        cell = self.raster_cell_mm
        lo = bounds.lo[:2] - 2 * cell
        hi = bounds.hi[:2] + 2 * cell
        nx = int(np.ceil((hi[0] - lo[0]) / cell))
        ny = int(np.ceil((hi[1] - lo[1]) / cell))
        # One batched edge-crossing pass rasterizes the whole stack
        # into packed rows (see repro.slicer.raster); bit-identical to
        # packing rasterize_contours of every layer.
        raw = rasterize_stack(
            [layer.contours for layer in slices.layers], lo, nx, ny, cell
        )
        shape = (raw.shape[0], ny, nx)
        model, weak, voids = self._apply_bead_merge(raw, nx, cell)
        del raw
        support = (
            support_columns(model)
            if self.settings.support == "smart"
            else np.zeros_like(model)
        )
        return PrintedArtifact.from_packed(
            machine=self.machine,
            shape=shape,
            grids={"model": model, "support": support, "weak": weak,
                   "voids": voids},
            cell_mm=cell,
            layer_height_mm=self.settings.layer_height_mm,
            origin=lo,
            seam=seam,
            metadata=dict(metadata or {}),
        )

    def _apply_bead_merge(self, raw_bits: np.ndarray, nx: int, cell: float):
        """Bridge sub-tolerance gaps; record weak bridges and open voids.

        Per layer: morphological closing with a radius of half the merge
        tolerance bridges gaps narrower than the tolerance (squished
        beads fuse); the bridged cells are *weak*.  Whatever internal
        gap remains open after closing is a *void* (an unfused seam).

        ``raw_bits`` is the row-packed raster stack (``nx`` valid bits
        per row, see :func:`~repro.printer.artifact.pack_rows`) and
        every grid stays packed.  Identical layers (an extruded part
        rasterizes to one repeated cross-section) are morphed once and
        broadcast back.  The closing runs as bit shifts on packed rows
        (:func:`_packed_closing`) and the hole fill labels only the
        background a straight line cannot clear (:func:`_packed_holes`),
        exact replacements for per-layer ``ndimage.binary_closing`` /
        ``binary_fill_holes`` with the 4-connected structure - asserted
        in the deposition tests.  Returns the packed
        ``(model, weak, voids)``.
        """
        iterations = max(int(round(self.settings.merge_gap_mm / (2.0 * cell))), 1)
        if not raw_bits.any():
            return raw_bits, np.zeros_like(raw_bits), np.zeros_like(raw_bits)
        first, inverse = _unique_layers(raw_bits)
        closed_unique = _packed_closing(raw_bits[first], nx, iterations)
        voids_unique = _packed_holes(closed_unique, nx)
        model = closed_unique[inverse]
        weak = model & ~raw_bits
        voids = voids_unique[inverse]
        return model, weak, voids


def _unique_layers(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of first-occurrence layers plus the layer -> unique map.

    A dict maps each layer's bytes to the index of its first occurrence
    - exact, and the same ``(first, inverse)`` as the scalar oracle
    :func:`_unique_layers_loop`.  The deposit passes the row-packed
    stack, so a key is 8x shorter than the bool layer.
    ``np.unique(axis=0)`` is not used: it views each row as a
    structured dtype with one field per byte, and on real layer widths
    (~110 KB rows) that sort costs ~1 s per stack where hashing the
    rows costs milliseconds.
    """
    nz = stack.shape[0]
    keys = np.ascontiguousarray(stack).reshape(nz, -1)
    seen: Dict[bytes, int] = {}
    first = []
    inverse = np.empty(nz, dtype=np.intp)
    for iz in range(nz):
        idx = seen.setdefault(keys[iz].tobytes(), len(first))
        if idx == len(first):
            first.append(iz)
        inverse[iz] = idx
    return np.asarray(first, dtype=np.intp), inverse


def _unique_layers_loop(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar oracle for :func:`_unique_layers` (per-layer byte keys)."""
    seen: Dict[bytes, int] = {}
    first = []
    inverse = np.empty(stack.shape[0], dtype=np.intp)
    for iz in range(stack.shape[0]):
        key = stack[iz].tobytes()
        idx = seen.setdefault(key, len(first))
        if idx == len(first):
            first.append(iz)
        inverse[iz] = idx
    return np.asarray(first, dtype=np.intp), inverse


def _cross_dilate(a: np.ndarray) -> np.ndarray:
    """One 4-connected dilation of every layer (border value 0)."""
    out = a.copy()
    out[:, 1:, :] |= a[:, :-1, :]
    out[:, :-1, :] |= a[:, 1:, :]
    out[:, :, 1:] |= a[:, :, :-1]
    out[:, :, :-1] |= a[:, :, 1:]
    return out


def _cross_erode(a: np.ndarray) -> np.ndarray:
    """One 4-connected erosion of every layer (border value 0)."""
    out = a.copy()
    out[:, 1:, :] &= a[:, :-1, :]
    out[:, :-1, :] &= a[:, 1:, :]
    out[:, :, 1:] &= a[:, :, :-1]
    out[:, :, :-1] &= a[:, :, 1:]
    out[:, 0, :] = False
    out[:, -1, :] = False
    out[:, :, 0] = False
    out[:, :, -1] = False
    return out


def _cross_closing(stack: np.ndarray, iterations: int) -> np.ndarray:
    """``iterations``-fold binary closing of each layer, as shift ops.

    Equivalent to ``ndimage.binary_closing(layer, <4-connected cross>,
    iterations)`` per layer: iterated cross dilation then erosion, with
    the array border treated as background throughout.  The boolean
    oracle of :func:`_packed_closing`, which the deposit runs.
    """
    out = stack
    for _ in range(iterations):
        out = _cross_dilate(out)
    for _ in range(iterations):
        out = _cross_erode(out)
    return out


#: 3D structure connecting only within a layer: 4-neighbourhood in
#: (y, x), nothing across z.
_IN_LAYER_STRUCTURE = np.zeros((3, 3, 3), dtype=bool)
_IN_LAYER_STRUCTURE[1] = ndimage.generate_binary_structure(2, 1)


def _fill_holes_stack(stack: np.ndarray) -> np.ndarray:
    """Per-layer ``binary_fill_holes``, via one labelling of the stack.

    A hole is a background component that cannot reach its layer's
    border.  One ``ndimage.label`` call with a z-disconnected structure
    finds all in-layer background components at once; components whose
    label appears on a layer edge are outside, everything else fills.
    """
    background, n_labels = ndimage.label(~stack, structure=_IN_LAYER_STRUCTURE)
    outside = np.zeros(n_labels + 1, dtype=bool)
    for edge in (
        background[:, 0, :],
        background[:, -1, :],
        background[:, :, 0],
        background[:, :, -1],
    ):
        outside[np.unique(edge)] = True
    outside[0] = True  # label 0 is the foreground itself
    return stack | ~outside[background]


def _packed_closing(bits: np.ndarray, nx: int, iterations: int) -> np.ndarray:
    """:func:`_cross_closing` on row-packed layers (``nx`` valid bits).

    y neighbours are whole byte rows; x neighbours are the bit shifts
    with carry above.  Dilation masks the bit it shifts into the
    padding; erosion against zero-filled shifts clears the border by
    itself, as the oracle does explicitly.
    """
    tail = tail_mask(nx)
    out = bits
    for _ in range(iterations):
        a = out
        out = a | shift_in_lower(a) | shift_in_higher(a)
        out[:, 1:, :] |= a[:, :-1, :]
        out[:, :-1, :] |= a[:, 1:, :]
        out[..., -1] &= tail
    for _ in range(iterations):
        a = out
        out = a & shift_in_lower(a) & shift_in_higher(a)
        out[:, 1:, :] &= a[:, :-1, :]
        out[:, :-1, :] &= a[:, 1:, :]
        out[:, 0, :] = 0
        out[:, -1, :] = 0
    return out


def _packed_holes(bits: np.ndarray, nx: int) -> np.ndarray:
    """Enclosed background of every packed layer, packed.

    ``_fill_holes_stack(layer) & ~layer`` per layer, labelling as little
    as it can.  A background pixel outside its row's first..last solid
    pixel, or outside its column's, reaches the frame in a straight
    line, so it is exterior; only the remaining *candidates* can be
    holes (:func:`~repro.printer.artifact.line_extent` finds them on
    the packed bytes).  A layer without candidates has no hole.  Other
    layers label only the candidates' bounding box grown by one pixel
    (at byte granularity along x): a component there is a hole iff it
    holds no non-candidate background pixel.  That is exact, because a
    candidate is never on the frame (it has solid on both sides of it)
    and the grown box holds all its neighbours, so an all-candidate
    component in the box is a whole component of the layer, while a
    component with a non-candidate pixel reaches the frame.
    """
    out = np.zeros_like(bits)
    candidates = ~bits & line_extent(bits, 2) & line_extent(bits, 1)
    nb = bits.shape[2]
    for z in np.flatnonzero(candidates.any(axis=(1, 2))):
        ys = np.flatnonzero(candidates[z].any(axis=1))
        xs = np.flatnonzero(candidates[z].any(axis=0))
        box = (z, slice(ys[0] - 1, ys[-1] + 2),
               slice(max(xs[0] - 1, 0), min(xs[-1] + 2, nb)))
        width = min(8 * (box[2].stop - box[2].start), nx - 8 * box[2].start)
        background = ~unpack_rows(bits[box], width)
        labels, n_labels = ndimage.label(
            background, structure=_IN_LAYER_STRUCTURE[1]
        )
        reaches_frame = np.zeros(n_labels + 1, dtype=bool)
        reaches_frame[labels[background & ~unpack_rows(candidates[box], width)]] = True
        reaches_frame[0] = True  # label 0 is the solid itself
        out[box] = pack_rows(~reaches_frame[labels])
    return out


def support_columns(model_bits: np.ndarray) -> np.ndarray:
    """:func:`repro.slicer.support.support_columns` on row-packed grids.

    The column rule (empty, with model somewhere above) acts on each
    bit independently, so it runs on the packed bytes as they are: a
    reverse cumulative OR over z.  Padding stays zero.
    """
    above = np.zeros_like(model_bits)
    above[:-1] = np.bitwise_or.accumulate(model_bits[:0:-1], axis=0)[::-1]
    return above & ~model_bits
