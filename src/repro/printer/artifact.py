"""Printed artifacts: the voxel model of what came off the machine.

Everything the paper measures on physical parts is read off this object:
which material fills the embedded-sphere region (Table 3, Fig. 10c/d),
surface disruption (Fig. 8a), the discontinuity seam (Fig. 7b), weight
and density (Table 1 integrity checks), and the defect geometry the
mechanics lab turns into Table 2.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.printer.machines import MachineProfile
from repro.slicer.seams import SeamReport


class VoxelMaterial(enum.IntEnum):
    """Material occupying one voxel."""

    EMPTY = 0
    MODEL = 1
    SUPPORT = 2


#: The artifact's voxel grids, in fingerprint and codec order.
GRID_NAMES = ("model", "support", "weak", "voids")

#: Unpacked bytes per slab when a grid is streamed layer by layer.
_SLAB_BYTES = 1 << 22


def pack_rows(grid: np.ndarray) -> np.ndarray:
    """Row-pack a boolean ``(..., nx)`` grid: ``np.packbits`` along x.

    Every ``(z, y)`` row becomes ``ceil(nx / 8)`` bytes, x = 0 in the
    most significant bit of the first byte; the padding bits past
    ``nx`` are always zero, so bytewise ops and popcounts stay exact.
    """
    return np.packbits(np.asarray(grid, dtype=bool), axis=-1)


def unpack_rows(bits: np.ndarray, nx: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: a fresh boolean ``(..., nx)`` grid."""
    return np.unpackbits(bits, axis=-1, count=nx).view(bool)


def tail_mask(nx: int) -> int:
    """Byte mask of the valid bits in a packed row's last byte."""
    return (0xFF << (-nx % 8)) & 0xFF


#: NumPy's uint8 left shift is not vectorized; a wrapping multiply by
#: ``2**k`` gives the same byte as ``<< k`` about seven times faster.
_TIMES_2, _TIMES_4, _TIMES_16, _TIMES_128 = (np.uint8(k) for k in (2, 4, 16, 128))


def shift_in_lower(bits: np.ndarray) -> np.ndarray:
    """Packed rows where each x holds the bit at ``x - 1`` (0 at x = 0).

    Bits run MSB-first, so moving to higher x is a right shift that
    carries each byte's low bit into the next byte's high bit.
    """
    out = bits >> 1
    out[..., 1:] |= bits[..., :-1] * _TIMES_128  # << 7
    return out


def shift_in_higher(bits: np.ndarray) -> np.ndarray:
    """Packed rows where each x holds the bit at ``x + 1``.

    The last valid x reads the padding (zero in a clean grid) or
    nothing, i.e. the border is background.
    """
    out = bits * _TIMES_2  # << 1
    out[..., :-1] |= bits[..., 1:] >> 7
    return out


def line_extent(bits: np.ndarray, axis: int) -> np.ndarray:
    """Voxels between the first and last set voxel of their line, packed.

    A voxel is in the extent when its line along ``axis`` (0 = z, 1 = y,
    2 = x of a row-packed ``(nz, ny, ceil(nx / 8))`` stack) holds a set
    voxel at or before it *and* one at or after it.  Background outside
    the extent sees a frame face along that line.  Along z and y the
    bits are independent, so that is a forward and a backward
    cumulative OR of the bytes; along x each byte smears its own bits
    and takes 0xFF from any set byte before (or after) it.  Padding
    stays zero.
    """
    if axis != 2:
        forward = np.bitwise_or.accumulate(bits, axis=axis)
        flipped = np.flip(bits, axis=axis)
        backward = np.flip(np.bitwise_or.accumulate(flipped, axis=axis),
                           axis=axis)
        return forward & backward
    forward = bits | (bits >> 1)
    forward |= forward >> 2
    forward |= forward >> 4
    backward = bits | (bits * _TIMES_2)
    backward |= backward * _TIMES_4
    backward |= backward * _TIMES_16
    nonzero = (bits != 0).view(np.uint8)
    seen = np.maximum.accumulate(nonzero, axis=-1)
    forward[..., 1:] |= np.negative(seen[..., :-1])  # 1 -> 0xFF
    # A contiguous reversed copy: accumulating a reversed view is slower.
    reversed_nonzero = np.ascontiguousarray(nonzero[..., ::-1])
    seen = np.maximum.accumulate(reversed_nonzero, axis=-1)[..., ::-1]
    backward[..., :-1] |= np.negative(seen[..., 1:])
    return forward & backward


_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount(bits: np.ndarray) -> int:
    """Number of set bits in a packed byte array (256-entry lookup table)."""
    return int(_POPCOUNT_LUT[bits].sum(dtype=np.int64))


class PrintedArtifact:
    """A simulated print.

    Grids are indexed ``[z, y, x]``; layer 0 touches the build plate.
    ``cell_mm`` is the in-plane raster pitch; the z pitch is the layer
    height.  ``weak`` marks model voxels that were bridged across a
    seam gap (bonded but at reduced strength); ``voids`` marks empty
    cells enclosed by model material (unbridged seam gaps and any other
    internal defects).

    The four grids are stored row-packed (:func:`pack_rows`), an eighth
    of a byte per voxel; the constructor takes boolean grids and
    :meth:`from_packed` takes packed ones.  ``.model``, ``.support``,
    ``.weak`` and ``.voids`` unpack a fresh read-only boolean grid on
    every access, so hot paths read the packed bytes instead
    (:meth:`voxel_count`, :meth:`packed`).  An artifact never changes
    after construction: cache tiers share its buffers.
    """

    def __init__(
        self,
        machine: MachineProfile,
        model: np.ndarray,
        support: np.ndarray,
        weak: np.ndarray,
        voids: np.ndarray,
        cell_mm: float,
        layer_height_mm: float,
        origin: np.ndarray,
        seam: Optional[SeamReport] = None,
        metadata: Optional[Dict[str, object]] = None,
    ):
        grids = dict(zip(GRID_NAMES, (model, support, weak, voids)))
        shapes = {np.shape(grid) for grid in grids.values()}
        if len(shapes) != 1:
            raise ValueError("all artifact grids must share one shape")
        shape = shapes.pop()
        if len(shape) != 3:
            raise ValueError("artifact grids must be 3D (nz, ny, nx)")
        self._init(machine, shape, {k: pack_rows(g) for k, g in grids.items()},
                   cell_mm, layer_height_mm, origin, seam, metadata)

    @classmethod
    def from_packed(
        cls,
        machine: MachineProfile,
        shape: Tuple[int, int, int],
        grids: Dict[str, np.ndarray],
        cell_mm: float,
        layer_height_mm: float,
        origin: np.ndarray,
        seam: Optional[SeamReport] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "PrintedArtifact":
        """Build an artifact around row-packed grids, without copying."""
        shape = tuple(int(n) for n in shape)
        if len(shape) != 3:
            raise ValueError("artifact grids must be 3D (nz, ny, nx)")
        nz, ny, nx = shape
        rows = (nz, ny, (nx + 7) // 8)
        pad = ~tail_mask(nx) & 0xFF
        for name in GRID_NAMES:
            bits = grids[name]
            if bits.shape != rows or bits.dtype != np.uint8:
                raise ValueError(
                    f"packed {name} grid must be uint8 {rows}, "
                    f"got {bits.dtype} {bits.shape}"
                )
            if pad and bits.size and (bits[..., -1] & pad).any():
                raise ValueError(f"packed {name} grid has padding bits set")
        artifact = cls.__new__(cls)
        artifact._init(machine, shape, {k: grids[k] for k in GRID_NAMES},
                       cell_mm, layer_height_mm, origin, seam, metadata)
        return artifact

    def _init(self, machine, shape, bits, cell_mm, layer_height_mm, origin,
              seam, metadata) -> None:
        for array in bits.values():
            array.flags.writeable = False
        self.machine = machine
        #: ``(nz, ny, nx)`` of every grid.
        self.shape: Tuple[int, int, int] = tuple(shape)
        self._bits = bits
        #: Set-voxel count per grid name, filled by :meth:`voxel_count`.
        self._counts: Dict[str, int] = {}
        self.cell_mm = cell_mm
        self.layer_height_mm = layer_height_mm
        self.origin = origin  # (x0, y0) of cell [:, 0, 0]
        self.seam = seam
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}

    # -- grids ----------------------------------------------------------------

    def packed(self, name: str) -> np.ndarray:
        """The row-packed ``(nz, ny, ceil(nx / 8))`` bytes of one grid."""
        return self._bits[name]

    def grid(self, name: str) -> np.ndarray:
        """One grid unpacked to a fresh read-only boolean array."""
        out = unpack_rows(self._bits[name], self.shape[2])
        out.flags.writeable = False
        return out

    def grid_slabs(self, name: str) -> Iterator[np.ndarray]:
        """One grid as consecutive boolean z-slabs of bounded size.

        Concatenated along z the slabs are :meth:`grid`; a consumer
        that streams them (the outcome fingerprint) never holds more
        than a few MB unpacked.
        """
        nz, ny, nx = self.shape
        step = max(1, _SLAB_BYTES // max(1, ny * nx))
        bits = self._bits[name]
        for z in range(0, nz, step):
            yield unpack_rows(bits[z:z + step], nx)

    def voxel_count(self, name: str) -> int:
        """Set voxels of one grid, counted once on the packed bytes."""
        count = self._counts.get(name)
        if count is None:
            count = self._counts[name] = popcount(self._bits[name])
        return count

    model = property(lambda self: self.grid("model"))
    support = property(lambda self: self.grid("support"))
    weak = property(lambda self: self.grid("weak"))
    voids = property(lambda self: self.grid("voids"))

    # -- volumes and mass -------------------------------------------------

    @property
    def voxel_volume_mm3(self) -> float:
        return self.cell_mm * self.cell_mm * self.layer_height_mm

    @property
    def model_volume_mm3(self) -> float:
        return float(self.voxel_count("model")) * self.voxel_volume_mm3

    @property
    def support_volume_mm3(self) -> float:
        return float(self.voxel_count("support")) * self.voxel_volume_mm3

    @property
    def weight_g(self) -> float:
        """Weight including support (as-printed, before washing)."""
        model_g = self.model_volume_mm3 / 1000.0 * self.machine.model_material.density_g_cm3
        support_g = self.support_volume_mm3 / 1000.0 * self.machine.support_material.density_g_cm3
        return model_g + support_g

    @property
    def void_volume_mm3(self) -> float:
        return float(self.voxel_count("voids")) * self.voxel_volume_mm3

    @property
    def porosity(self) -> float:
        """Internal void volume over (model + void) volume."""
        solid = float(self.voxel_count("model"))
        hollow = float(self.voxel_count("voids"))
        return hollow / (solid + hollow) if (solid + hollow) > 0 else 0.0

    # -- queries ------------------------------------------------------------

    def _bit(self, name: str, iz: int, iy: int, ix: int) -> bool:
        return bool((self._bits[name][iz, iy, ix >> 3] >> (7 - (ix & 7))) & 1)

    def material_at(self, point: np.ndarray) -> VoxelMaterial:
        """Material at a build-space point (x, y, z in mm)."""
        p = np.asarray(point, dtype=float)
        ix = int(np.floor((p[0] - self.origin[0]) / self.cell_mm))
        iy = int(np.floor((p[1] - self.origin[1]) / self.cell_mm))
        iz = int(np.floor(p[2] / self.layer_height_mm))
        nz, ny, nx = self.shape
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            return VoxelMaterial.EMPTY
        if self._bit("model", iz, iy, ix):
            return VoxelMaterial.MODEL
        if self._bit("support", iz, iy, ix):
            return VoxelMaterial.SUPPORT
        return VoxelMaterial.EMPTY

    def region_fractions(self, mask: np.ndarray) -> Dict[VoxelMaterial, float]:
        """Material fractions within a boolean voxel mask."""
        mask_bits = pack_rows(np.broadcast_to(mask, self.shape))
        total = popcount(mask_bits)
        if total == 0:
            return {m: 0.0 for m in VoxelMaterial}
        model, support = self._bits["model"], self._bits["support"]
        return {
            VoxelMaterial.MODEL: float(popcount(model & mask_bits)) / total,
            VoxelMaterial.SUPPORT: float(popcount(support & mask_bits)) / total,
            VoxelMaterial.EMPTY: float(
                popcount(mask_bits & ~(model | support))
            ) / total,
        }

    def sphere_mask(self, center: np.ndarray, radius: float, shrink: float = 0.85) -> np.ndarray:
        """Voxel mask of a sphere region (slightly shrunk to avoid the shell)."""
        nz, ny, nx = self.shape
        zs = (np.arange(nz) + 0.5) * self.layer_height_mm
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.cell_mm
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.cell_mm
        dz = (zs - center[2])[:, None, None]
        dy = (ys - center[1])[None, :, None]
        dx = (xs - center[0])[None, None, :]
        return (dx * dx + dy * dy + dz * dz) <= (radius * shrink) ** 2

    def sphere_region_material(self, center, radius: float) -> VoxelMaterial:
        """Dominant material inside an embedded-sphere region (Table 3)."""
        fractions = self.region_fractions(self.sphere_mask(np.asarray(center, float), radius))
        return max(fractions, key=lambda m: fractions[m])

    # -- cut sections and washing ------------------------------------------

    def cross_section(self, axis: str = "y", position: Optional[float] = None) -> np.ndarray:
        """Material-code 2D section through the artifact.

        ``axis='y'`` cuts the part in half the way Fig. 10c/d saws the
        printed prism.  Returns an int array of ``VoxelMaterial`` values.
        Only the requested slice is unpacked.
        """
        nz, ny, nx = self.shape
        if axis == "y":
            iy = ny // 2 if position is None else int(
                np.clip((position - self.origin[1]) / self.cell_mm, 0, ny - 1)
            )
            cut = {k: unpack_rows(self._bits[k][:, iy, :], nx) for k in ("model", "support")}
        elif axis == "x":
            ix = nx // 2 if position is None else int(
                np.clip((position - self.origin[0]) / self.cell_mm, 0, nx - 1)
            )
            cut = {
                k: ((self._bits[k][:, :, ix >> 3] >> (7 - (ix & 7))) & 1).view(bool)
                for k in ("model", "support")
            }
        elif axis == "z":
            iz = nz // 2 if position is None else int(
                np.clip(position / self.layer_height_mm, 0, nz - 1)
            )
            cut = {k: unpack_rows(self._bits[k][iz], nx) for k in ("model", "support")}
        else:
            raise ValueError("axis must be 'x', 'y' or 'z'")
        codes = np.zeros(cut["model"].shape, dtype=np.int8)
        codes[cut["support"]] = int(VoxelMaterial.SUPPORT)
        codes[cut["model"]] = int(VoxelMaterial.MODEL)
        return codes

    def section_ascii(self, axis: str = "y", position: Optional[float] = None, max_width: int = 100) -> str:
        """ASCII rendering of a cut section ('#': model, 's': support)."""
        section = self.cross_section(axis, position)
        step = max(1, int(np.ceil(section.shape[1] / max_width)))
        glyphs = {0: ".", 1: "#", 2: "s"}
        rows = [
            "".join(glyphs[int(v)] for v in row[::step]) for row in section[::-1]
        ]
        return "\n".join(rows)

    def washed(self) -> "PrintedArtifact":
        """Dissolve the soluble support (the paper washes SR-10 away)."""
        if not self.machine.support_material.soluble:
            raise ValueError(
                f"{self.machine.support_material.name} support is not soluble"
            )
        return PrintedArtifact.from_packed(
            machine=self.machine,
            shape=self.shape,
            grids=dict(self._bits, support=np.zeros_like(self._bits["support"])),
            cell_mm=self.cell_mm,
            layer_height_mm=self.layer_height_mm,
            origin=self.origin.copy(),
            seam=self.seam,
            metadata=dict(self.metadata, washed=True),
        )

    # -- quality signals -----------------------------------------------------

    @property
    def surface_disruption_area_mm2(self) -> float:
        """Area of unbridged seam voids that reach the artifact surface.

        A void voxel counts when it or one of its 6 neighbours is
        exterior background (``voids & dilate6(exterior)``).  Most
        exterior background needs no labelling to be told apart: a
        background voxel that sees a frame face in a straight line
        along x, y or z (:func:`line_extent`) is exterior.  When that
        visible background, dilated by the 6-neighbourhood on the
        packed rows, covers every void voxel, every void counts.  Only
        otherwise is the background labelled (:func:`_exterior_labels`)
        and the void voxels probed against it.
        """
        voids = self._bits["voids"]
        n_voids = self.voxel_count("voids")
        if not n_voids:
            return 0.0
        solid = self._bits["model"] | self._bits["support"]
        visible = ~(line_extent(solid, 0) & line_extent(solid, 1)
                    & line_extent(solid, 2))
        visible[..., -1] &= tail_mask(self.shape[2])
        near = visible | shift_in_lower(visible) | shift_in_higher(visible)
        near[1:] |= visible[:-1]
        near[:-1] |= visible[1:]
        near[:, 1:] |= visible[:, :-1]
        near[:, :-1] |= visible[:, 1:]
        if not (voids & ~near).any():
            return float(n_voids) * self.cell_mm * self.cell_mm
        coords = np.nonzero(self.grid("voids"))
        labels, outside = _exterior_labels(unpack_rows(solid, self.shape[2]))
        touch = outside[labels[coords]]
        for axis, n in enumerate(self.shape):
            for step in (-1, 1):
                moved = coords[axis] + step
                inside = (moved >= 0) & (moved < n)
                probe = tuple(
                    moved[inside] if i == axis else c[inside]
                    for i, c in enumerate(coords)
                )
                touch[inside] |= outside[labels[probe]]
        return float(np.count_nonzero(touch)) * self.cell_mm * self.cell_mm

    @property
    def has_visible_seam(self) -> bool:
        """Whether the printed part shows the split (Fig. 7b / Fig. 8a)."""
        if self.seam is not None and self.seam.prints_discontinuity:
            return True
        return self.void_volume_mm3 > 0.0


def pack_artifact(artifact: "PrintedArtifact") -> Dict[str, object]:
    """Cache-boundary codec for the deposit stage.

    The artifact already holds its grids row-packed, so encoding only
    gathers references: the memory tier, the decoded memo and the disk
    segments all hold the same buffers (see
    :class:`~repro.pipeline.stage.Stage`).  ``unpack_artifact``
    restores an exactly equal artifact.
    """
    return {
        "grids": {name: artifact.packed(name) for name in GRID_NAMES},
        "shape": artifact.shape,
        "machine": artifact.machine,
        "cell_mm": artifact.cell_mm,
        "layer_height_mm": artifact.layer_height_mm,
        "origin": artifact.origin,
        "seam": artifact.seam,
        "metadata": artifact.metadata,
    }


def unpack_artifact(packed: Dict[str, object]) -> "PrintedArtifact":
    """Decode :func:`pack_artifact` output back into an artifact."""
    return PrintedArtifact.from_packed(
        machine=packed["machine"],
        shape=packed["shape"],
        grids=packed["grids"],
        cell_mm=packed["cell_mm"],
        layer_height_mm=packed["layer_height_mm"],
        origin=packed["origin"],
        seam=packed["seam"],
        metadata=packed["metadata"],
    )


def _exterior_labels(solid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """6-connected background labels of ``solid`` and which are exterior.

    ``outside[labels]`` is ``~ndimage.binary_fill_holes(solid)``: the
    background components whose label shows up on a face of the volume
    (label 0, the solid itself, is not).  ``solid`` is consumed (it is
    inverted in place to the background mask).
    """
    background = np.logical_not(solid, out=solid)
    labels, n_labels = ndimage.label(background)
    del background, solid
    outside = np.zeros(n_labels + 1, dtype=bool)
    for face in (
        labels[0], labels[-1],
        labels[:, 0], labels[:, -1],
        labels[:, :, 0], labels[:, :, -1],
    ):
        outside[np.unique(face)] = True
    outside[0] = False
    return labels, outside
