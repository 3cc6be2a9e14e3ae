"""Printed artifacts: the voxel model of what came off the machine.

Everything the paper measures on physical parts is read off this object:
which material fills the embedded-sphere region (Table 3, Fig. 10c/d),
surface disruption (Fig. 8a), the discontinuity seam (Fig. 7b), weight
and density (Table 1 integrity checks), and the defect geometry the
mechanics lab turns into Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import ndimage

from repro.printer.machines import MachineProfile
from repro.slicer.seams import SeamReport


class VoxelMaterial(enum.IntEnum):
    """Material occupying one voxel."""

    EMPTY = 0
    MODEL = 1
    SUPPORT = 2


@dataclass
class PrintedArtifact:
    """A simulated print.

    Grids are indexed ``[z, y, x]``; layer 0 touches the build plate.
    ``cell_mm`` is the in-plane raster pitch; the z pitch is the layer
    height.  ``weak`` marks model voxels that were bridged across a
    seam gap (bonded but at reduced strength); ``voids`` marks empty
    cells enclosed by model material (unbridged seam gaps and any other
    internal defects).
    """

    machine: MachineProfile
    model: np.ndarray
    support: np.ndarray
    weak: np.ndarray
    voids: np.ndarray
    cell_mm: float
    layer_height_mm: float
    origin: np.ndarray  # (x0, y0) of cell [:, 0, 0]
    seam: Optional[SeamReport] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shapes = {self.model.shape, self.support.shape, self.weak.shape, self.voids.shape}
        if len(shapes) != 1:
            raise ValueError("all artifact grids must share one shape")
        if self.model.ndim != 3:
            raise ValueError("artifact grids must be 3D (nz, ny, nx)")

    # -- volumes and mass -------------------------------------------------

    @property
    def voxel_volume_mm3(self) -> float:
        return self.cell_mm * self.cell_mm * self.layer_height_mm

    @property
    def model_volume_mm3(self) -> float:
        return float(self.model.sum()) * self.voxel_volume_mm3

    @property
    def support_volume_mm3(self) -> float:
        return float(self.support.sum()) * self.voxel_volume_mm3

    @property
    def weight_g(self) -> float:
        """Weight including support (as-printed, before washing)."""
        model_g = self.model_volume_mm3 / 1000.0 * self.machine.model_material.density_g_cm3
        support_g = self.support_volume_mm3 / 1000.0 * self.machine.support_material.density_g_cm3
        return model_g + support_g

    @property
    def void_volume_mm3(self) -> float:
        return float(self.voids.sum()) * self.voxel_volume_mm3

    @property
    def porosity(self) -> float:
        """Internal void volume over (model + void) volume."""
        solid = float(self.model.sum())
        hollow = float(self.voids.sum())
        return hollow / (solid + hollow) if (solid + hollow) > 0 else 0.0

    # -- queries ------------------------------------------------------------

    def material_at(self, point: np.ndarray) -> VoxelMaterial:
        """Material at a build-space point (x, y, z in mm)."""
        p = np.asarray(point, dtype=float)
        ix = int(np.floor((p[0] - self.origin[0]) / self.cell_mm))
        iy = int(np.floor((p[1] - self.origin[1]) / self.cell_mm))
        iz = int(np.floor(p[2] / self.layer_height_mm))
        nz, ny, nx = self.model.shape
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            return VoxelMaterial.EMPTY
        if self.model[iz, iy, ix]:
            return VoxelMaterial.MODEL
        if self.support[iz, iy, ix]:
            return VoxelMaterial.SUPPORT
        return VoxelMaterial.EMPTY

    def region_fractions(self, mask: np.ndarray) -> Dict[VoxelMaterial, float]:
        """Material fractions within a boolean voxel mask."""
        total = int(mask.sum())
        if total == 0:
            return {m: 0.0 for m in VoxelMaterial}
        return {
            VoxelMaterial.MODEL: float((self.model & mask).sum()) / total,
            VoxelMaterial.SUPPORT: float((self.support & mask).sum()) / total,
            VoxelMaterial.EMPTY: float(
                (~self.model & ~self.support & mask).sum()
            ) / total,
        }

    def sphere_mask(self, center: np.ndarray, radius: float, shrink: float = 0.85) -> np.ndarray:
        """Voxel mask of a sphere region (slightly shrunk to avoid the shell)."""
        nz, ny, nx = self.model.shape
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
        """
        nz, ny, nx = self.model.shape
        codes = np.zeros(self.model.shape, dtype=np.int8)
        codes[self.support] = int(VoxelMaterial.SUPPORT)
        codes[self.model] = int(VoxelMaterial.MODEL)
        if axis == "y":
            iy = ny // 2 if position is None else int(
                np.clip((position - self.origin[1]) / self.cell_mm, 0, ny - 1)
            )
            return codes[:, iy, :]
        if axis == "x":
            ix = nx // 2 if position is None else int(
                np.clip((position - self.origin[0]) / self.cell_mm, 0, nx - 1)
            )
            return codes[:, :, ix]
        if axis == "z":
            iz = nz // 2 if position is None else int(
                np.clip(position / self.layer_height_mm, 0, nz - 1)
            )
            return codes[iz]
        raise ValueError("axis must be 'x', 'y' or 'z'")

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
        return PrintedArtifact(
            machine=self.machine,
            model=self.model.copy(),
            support=np.zeros_like(self.support),
            weak=self.weak.copy(),
            voids=self.voids.copy(),
            cell_mm=self.cell_mm,
            layer_height_mm=self.layer_height_mm,
            origin=self.origin.copy(),
            seam=self.seam,
            metadata=dict(self.metadata, washed=True),
        )

    # -- quality signals -----------------------------------------------------

    @property
    def surface_disruption_area_mm2(self) -> float:
        """Area of unbridged seam voids that reach the artifact surface."""
        if not self.voids.any():
            return 0.0
        solid = self.model | self.support
        surface_touch = self.voids & _dilate6(_exterior_mask(solid))
        return float(surface_touch.sum()) * self.cell_mm * self.cell_mm

    @property
    def has_visible_seam(self) -> bool:
        """Whether the printed part shows the split (Fig. 7b / Fig. 8a)."""
        if self.seam is not None and self.seam.prints_discontinuity:
            return True
        return self.void_volume_mm3 > 0.0


#: Grid attributes bit-packed by the cache codec.
_PACKED_GRIDS = ("model", "support", "weak", "voids")


def pack_artifact(artifact: "PrintedArtifact") -> Dict[str, object]:
    """Encode an artifact with its boolean grids bit-packed (8x smaller).

    Cache-boundary codec for the deposit stage (see
    :class:`~repro.pipeline.stage.Stage`): a sweep that retains many
    printed artifacts holds packed bytes instead of one byte per voxel.
    ``unpack_artifact`` restores an exactly equal artifact.
    """
    shape = artifact.model.shape
    return {
        "grids": {
            name: np.packbits(getattr(artifact, name)) for name in _PACKED_GRIDS
        },
        "shape": shape,
        "machine": artifact.machine,
        "cell_mm": artifact.cell_mm,
        "layer_height_mm": artifact.layer_height_mm,
        "origin": artifact.origin,
        "seam": artifact.seam,
        "metadata": artifact.metadata,
    }


def unpack_artifact(packed: Dict[str, object]) -> "PrintedArtifact":
    """Decode :func:`pack_artifact` output back into an artifact."""
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


def _exterior_mask(solid: np.ndarray) -> np.ndarray:
    """Background voxels reachable from outside the grid.

    Equivalent to ``~ndimage.binary_fill_holes(solid)`` (6-connected):
    label the background once and keep the components whose label shows
    up on any face of the volume - cheaper than the erosion-based
    flood fill on multi-million-voxel grids.
    """
    background, n_labels = ndimage.label(~solid)
    outside = np.zeros(n_labels + 1, dtype=bool)
    for face in (
        background[0], background[-1],
        background[:, 0], background[:, -1],
        background[:, :, 0], background[:, :, -1],
    ):
        outside[np.unique(face)] = True
    outside[0] = False  # label 0 is the solid itself
    return outside[background]


def _dilate6(a: np.ndarray) -> np.ndarray:
    """One 6-connected binary dilation (``ndimage.binary_dilation``)."""
    out = a.copy()
    out[1:] |= a[:-1]
    out[:-1] |= a[1:]
    out[:, 1:] |= a[:, :-1]
    out[:, :-1] |= a[:, 1:]
    out[:, :, 1:] |= a[:, :, :-1]
    out[:, :, :-1] |= a[:, :, 1:]
    return out
