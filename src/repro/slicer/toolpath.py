"""Tool-path generation: perimeters and raster infill per layer.

CatalystEX's exact routing is proprietary; we implement the standard
perimeter + alternating-axis solid raster, which preserves everything
the paper reads off tool paths (region coverage, seam visibility,
support placement).  DESIGN.md lists this as a known divergence.

A cell's tool paths are held column-wise in one :class:`ToolpathStack`
(layer heights, path and point counts, stacked points, role, material,
closure), built in one pass over every layer: the infill scanlines of
all layers go through one sparse crossing/pairing call of
:mod:`repro.slicer.raster`.  The stack reads as a sequence of
:class:`ToolpathLayer` views for code that wants per-path objects.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry.polygon import Polygon2
from repro.geometry.vec import EPS
from repro.slicer.raster import (
    _pair_crossings,
    crossings_in_ranges,
    scanline_ranges,
)
from repro.slicer.settings import SlicerSettings
from repro.slicer.slicer import SliceResult


class PathRole(enum.Enum):
    """What a deposited path is for."""

    PERIMETER = "perimeter"
    INFILL = "infill"
    SUPPORT = "support"


class ToolMaterial(enum.Enum):
    """Which extruder/material a path uses."""

    MODEL = "model"
    SUPPORT = "support"


@dataclass
class Path:
    """One continuous extrusion path in a layer."""

    points: np.ndarray
    role: PathRole
    material: ToolMaterial = ToolMaterial.MODEL
    closed: bool = False

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(self.points) < 2:
            raise ValueError("a path needs at least two points")

    @property
    def length(self) -> float:
        d = np.diff(self.points, axis=0)
        total = float(np.sum(np.linalg.norm(d, axis=1)))
        if self.closed:
            total += float(np.linalg.norm(self.points[0] - self.points[-1]))
        return total


@dataclass
class ToolpathLayer:
    """All paths of one layer."""

    z: float
    paths: List[Path] = field(default_factory=list)

    @property
    def total_extrusion_length(self) -> float:
        return sum(p.length for p in self.paths)

    def paths_by_role(self, role: PathRole) -> List[Path]:
        return [p for p in self.paths if p.role is role]


#: Column codes of :class:`ToolpathStack`: a path's ``role`` and
#: ``material`` are the index of its member in these tuples.
PATH_ROLES = tuple(PathRole)
TOOL_MATERIALS = tuple(ToolMaterial)
_PERIMETER = PATH_ROLES.index(PathRole.PERIMETER)
_INFILL = PATH_ROLES.index(PathRole.INFILL)
_MODEL = TOOL_MATERIALS.index(ToolMaterial.MODEL)


def _column(value, dtype, ndim: int) -> np.ndarray:
    """``value`` as a read-only array of ``dtype`` (a view, never the
    caller's own flags)."""
    array = np.asarray(value, dtype=dtype).view()
    if array.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d column, got shape {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ToolpathStack(SequenceABC):
    """Every layer's paths of one cell, column-wise.

    Paths are stored layer by layer in emission order; layer ``i`` owns
    the next ``n_paths[i]`` paths and path ``j`` the next
    ``n_points[j]`` rows of ``points``.  ``role`` and ``material`` hold
    the index of the member in :class:`PathRole` / :class:`ToolMaterial`.
    The columns are read-only; indexing or iterating yields
    :class:`ToolpathLayer` views whose paths' points are slices of
    ``points``.
    """

    z: np.ndarray  # (n_layers,) float64
    n_paths: np.ndarray  # (n_layers,) intp
    n_points: np.ndarray  # (n_paths,) intp
    points: np.ndarray  # (n_points_total, 2) float64
    role: np.ndarray  # (n_paths,) int8
    material: np.ndarray  # (n_paths,) int8
    closed: np.ndarray  # (n_paths,) bool

    def __post_init__(self) -> None:
        for name, dtype, ndim in (
            ("z", np.float64, 1),
            ("n_paths", np.intp, 1),
            ("n_points", np.intp, 1),
            ("points", np.float64, 2),
            ("role", np.int8, 1),
            ("material", np.int8, 1),
            ("closed", bool, 1),
        ):
            object.__setattr__(self, name, _column(getattr(self, name), dtype, ndim))

    @classmethod
    def from_layers(cls, layers: Iterable[ToolpathLayer]) -> "ToolpathStack":
        """The stack of hand-built layers (a stack is returned as is)."""
        if isinstance(layers, ToolpathStack):
            return layers
        zs: List[float] = []
        n_paths: List[int] = []
        points: List[np.ndarray] = []
        roles: List[int] = []
        materials: List[int] = []
        closed: List[bool] = []
        for layer in layers:
            zs.append(layer.z)
            n_paths.append(len(layer.paths))
            for path in layer.paths:
                points.append(path.points)
                roles.append(PATH_ROLES.index(path.role))
                materials.append(TOOL_MATERIALS.index(path.material))
                closed.append(path.closed)
        return cls(
            z=np.array(zs, dtype=np.float64),
            n_paths=np.array(n_paths, dtype=np.intp),
            n_points=np.fromiter(map(len, points), dtype=np.intp, count=len(points)),
            points=np.concatenate(points) if points else np.empty((0, 2)),
            role=np.array(roles, dtype=np.int8),
            material=np.array(materials, dtype=np.int8),
            closed=np.array(closed, dtype=bool),
        )

    def __len__(self) -> int:
        return int(self.z.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]
        first_path = int(self.n_paths[:index].sum())
        first_point = int(self.n_points[:first_path].sum())
        return self._layer(index, first_path, first_point)

    def _layer(self, index: int, first_path: int, first_point: int) -> ToolpathLayer:
        stop = first_path + int(self.n_paths[index])
        paths = []
        start = first_point
        for n, role, material, closed in zip(
            self.n_points[first_path:stop].tolist(),
            self.role[first_path:stop].tolist(),
            self.material[first_path:stop].tolist(),
            self.closed[first_path:stop].tolist(),
        ):
            paths.append(Path(
                points=self.points[start:start + n],
                role=PATH_ROLES[role],
                material=TOOL_MATERIALS[material],
                closed=closed,
            ))
            start += n
        return ToolpathLayer(z=float(self.z[index]), paths=paths)


def pack_toolpaths(stack: ToolpathStack) -> Dict[str, np.ndarray]:
    """Cache codec: the stack's columns, a primitive tree whose large
    arrays the disk cache stores as ``.npy`` segments (mmapped on warm
    reads)."""
    return {f.name: getattr(stack, f.name) for f in fields(stack)}


def unpack_toolpaths(packed: Dict[str, np.ndarray]) -> ToolpathStack:
    return ToolpathStack(**packed)


def region_spans(contours: Sequence[Polygon2], y: float) -> List[tuple]:
    """Even-odd interior x-spans of a set of contours at height ``y``.

    Scalar single-scanline implementation; the hot paths batch all
    scanlines through :func:`repro.slicer.raster.scanline_spans_batch`
    instead, and the tests hold the two bit-identical.
    """
    crossings: List[float] = []
    for poly in contours:
        p = poly.points
        q = np.roll(p, -1, axis=0)
        mask = (p[:, 1] > y) != (q[:, 1] > y)
        if np.any(mask):
            ps, qs = p[mask], q[mask]
            xs = ps[:, 0] + (y - ps[:, 1]) / (qs[:, 1] - ps[:, 1]) * (qs[:, 0] - ps[:, 0])
            crossings.extend(xs.tolist())
    crossings.sort()
    return [
        (crossings[i], crossings[i + 1])
        for i in range(0, len(crossings) - 1, 2)
        if crossings[i + 1] - crossings[i] > 1e-9
    ]


def generate_toolpaths(
    slices: SliceResult,
    settings: Optional[SlicerSettings] = None,
    support_layers: Optional[List[List[Path]]] = None,
    raster_angles_deg: Sequence[float] = (0.0, 90.0),
) -> ToolpathStack:
    """Perimeter + solid raster tool paths for every layer.

    Each layer holds, in order: ``n_perimeters`` passes over its
    contours (bead centred on the boundary; a real slicer offsets it
    inward by half a bead, which is area-neutral for the analyses
    here), its raster infill (see :func:`_raster_infill`), and
    ``support_layers[i]`` when given - support-material paths the
    deposition simulator derives from its occupancy grid (see
    ``repro.printer.deposition``).

    ``raster_angles_deg`` cycles per layer; real FDM slicers commonly
    use ``(45, -45)``, the default here alternates axis-aligned rasters.
    """
    settings = settings or slices.settings
    if not raster_angles_deg:
        raise ValueError("need at least one raster angle")
    n_layers = len(slices.layers)
    rings = [c.points for layer in slices.layers for c in layer.contours]
    ring_layer = np.repeat(
        np.arange(n_layers), [len(layer.contours) for layer in slices.layers]
    )
    ring_len = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
    ring_pts = np.concatenate(rings) if rings else np.empty((0, 2))

    # Perimeters: per layer, every contour once per perimeter pass.
    n_rings, n_passes = len(rings), max(settings.n_perimeters, 0)
    perim_ring = np.tile(np.arange(n_rings), n_passes)
    perim_pass = np.repeat(np.arange(n_passes), n_rings)
    order = np.lexsort((perim_ring, perim_pass, ring_layer[perim_ring]))
    perim_ring = perim_ring[order]
    perim_layer = ring_layer[perim_ring]

    infill_layer, infill_pts = _raster_infill(
        ring_pts, ring_layer, ring_len, settings, raster_angles_deg
    )

    support: List[Path] = []
    support_layer: List[int] = []
    for li, paths in enumerate((support_layers or [])[:n_layers]):
        support.extend(paths)
        support_layer.extend([li] * len(paths))

    # One record per path, in (layer, kind) order; within a kind the
    # records are already in emission order.
    ring_start = np.cumsum(ring_len) - ring_len
    n_infill = infill_layer.size
    support_len = np.fromiter(
        (len(p.points) for p in support), dtype=np.intp, count=len(support)
    )
    path_layer = np.concatenate(
        (perim_layer, infill_layer, support_layer)
    ).astype(np.intp)
    kind = np.repeat([0, 1, 2], [perim_ring.size, n_infill, len(support)])
    src_start = np.concatenate((
        ring_start[perim_ring],
        len(ring_pts) + 2 * np.arange(n_infill),
        len(ring_pts) + 2 * n_infill + np.cumsum(support_len) - support_len,
    )).astype(np.intp)
    n_points = np.concatenate(
        (ring_len[perim_ring], np.full(n_infill, 2), support_len)
    ).astype(np.intp)
    role = np.concatenate((
        np.full(perim_ring.size, _PERIMETER),
        np.full(n_infill, _INFILL),
        [PATH_ROLES.index(p.role) for p in support],
    )).astype(np.int8)
    material = np.concatenate((
        np.full(perim_ring.size + n_infill, _MODEL),
        [TOOL_MATERIALS.index(p.material) for p in support],
    )).astype(np.int8)
    closed = np.concatenate((
        np.ones(perim_ring.size, dtype=bool),
        np.zeros(n_infill, dtype=bool),
        np.array([p.closed for p in support], dtype=bool),
    ))
    src = np.concatenate(
        [ring_pts, infill_pts] + [p.points for p in support]
    )

    order = np.argsort(path_layer * 3 + kind, kind="stable")
    n_points = n_points[order]
    first = np.cumsum(n_points) - n_points
    gather = np.arange(int(n_points.sum())) + np.repeat(
        src_start[order] - first, n_points
    )
    return ToolpathStack(
        z=np.array([layer.z for layer in slices.layers], dtype=np.float64),
        n_paths=np.bincount(path_layer, minlength=n_layers),
        n_points=n_points,
        points=src[gather],
        role=role[order],
        material=material[order],
        closed=closed[order],
    )


def _rotation(angle_deg: float) -> np.ndarray:
    theta = np.deg2rad(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotate_by_layer(
    pts: np.ndarray, pt_layer: np.ndarray, angles: Sequence[float], sign: float
) -> np.ndarray:
    """``pts`` rotated by ``sign * angle`` of their layer (angles cycle).

    One ``pts[sel] @ rot.T`` per angle: the rows of a matrix product
    come out bit-identical to per-path products of two or more rows
    (a one-row product takes another BLAS route, so callers never
    rotate single points).
    """
    out = np.empty_like(pts)
    which = pt_layer % len(angles)
    for k, angle in enumerate(angles):
        sel = np.flatnonzero(which == k)
        if sel.size:
            out[sel] = pts[sel] @ _rotation(sign * float(angle)).T
    return out


def _scanline_heights(y0: float, y1: float, margin: float, spacing: float) -> np.ndarray:
    """Scanline heights ``y0 + margin``, ``+ spacing``, ... while
    ``y <= y1 - margin + 1e-12``, by repeated addition (a sequential
    ``np.add.accumulate``), not ``arange * spacing``."""
    start, limit = y0 + margin, y1 - margin + 1e-12
    if not start <= limit:
        return np.empty(0)
    n = int((limit - start) / spacing) + 2
    while True:
        steps = np.full(n, spacing)
        steps[0] = start
        ys = np.add.accumulate(steps)
        if ys[-1] > limit:
            return ys[: np.searchsorted(ys, limit, side="right")]
        n *= 2


def _raster_infill(
    ring_pts: np.ndarray,
    ring_layer: np.ndarray,
    ring_len: np.ndarray,
    settings: SlicerSettings,
    angles: Sequence[float],
):
    """Solid raster scan lines of every layer, each at its angle.

    Each layer's contours are rotated by ``-angle``, scanned with
    horizontal lines ``bead / 2`` inside its rotated y extent, and every
    span (shrunk by half a bead, dropped below a quarter bead, reversed
    on odd rows) rotated back.  Returns the layer of each infill path
    and its two end points, ``(n, 2, 2)`` flattened to ``(2n, 2)``.
    """
    if not len(ring_len):
        return np.empty(0, dtype=np.intp), np.empty((0, 2))
    spacing = settings.bead_width_mm
    if settings.interior == "sparse":
        spacing *= 4.0
    margin = settings.bead_width_mm / 2.0
    pt_layer = np.repeat(ring_layer, ring_len)
    rotated = _rotate_by_layer(ring_pts, pt_layer, angles, -1.0)

    # Rebuild each rotated ring as ``Polygon2`` would: drop a closing
    # vertex that rotation brought within EPS of the first.
    ring_end = np.cumsum(ring_len)
    ring_start = ring_end - ring_len
    d = rotated[ring_start] - rotated[ring_end - 1]
    drop = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) < EPS
    if drop.any():
        if np.any(ring_len[drop] < 4):
            raise ValueError("degenerate polygon after closing-vertex removal")
        keep = np.ones(len(rotated), dtype=bool)
        keep[ring_end[drop] - 1] = False
        rotated, pt_layer = rotated[keep], pt_layer[keep]
        ring_len = ring_len - drop
        ring_end = np.cumsum(ring_len)
        ring_start = ring_end - ring_len
    # Edge i runs from point i to the next point of its ring.
    succ = np.arange(1, len(rotated) + 1)
    succ[ring_end - 1] = ring_start
    p, q = rotated, rotated[succ]

    # Every layer's scanlines, concatenated; each edge searches only
    # its own layer's (ascending) heights.
    layers = np.unique(ring_layer)
    first_pt = np.searchsorted(pt_layer, layers)
    y_lo = np.minimum.reduceat(p[:, 1], first_pt)
    y_hi = np.maximum.reduceat(p[:, 1], first_pt)
    bounds = np.append(first_pt, len(p))
    ys_parts = []
    start = np.empty(len(p), dtype=np.intp)
    stop = np.empty(len(p), dtype=np.intp)
    offset = 0
    for i, (y0, y1) in enumerate(zip(y_lo.tolist(), y_hi.tolist())):
        ys = _scanline_heights(y0, y1, margin, spacing)
        a, b = bounds[i], bounds[i + 1]
        run_start, run_stop = scanline_ranges(p[a:b], q[a:b], ys)
        start[a:b] = run_start + offset
        stop[a:b] = run_stop + offset
        ys_parts.append(ys)
        offset += ys.size
    ys_all = np.concatenate(ys_parts)
    n_rows = np.array([ys.size for ys in ys_parts], dtype=np.intp)
    row_layer = np.repeat(layers, n_rows)
    row_first = np.repeat(np.cumsum(n_rows) - n_rows, n_rows)

    rows, _, xs = crossings_in_ranges(p, q, ys_all, start, stop)
    span_rows, x_in, x_out = _pair_crossings(rows, xs, ys_all.size)
    a = x_in + margin
    b = x_out - margin
    keep = ~(b - a < settings.bead_width_mm / 4.0)
    span_rows, a, b = span_rows[keep], a[keep], b[keep]
    flip = (span_rows - row_first[span_rows]) % 2 == 1
    y = ys_all[span_rows]
    ends = np.empty((span_rows.size, 2, 2))
    ends[:, 0, 0] = np.where(flip, b, a)
    ends[:, 1, 0] = np.where(flip, a, b)
    ends[:, :, 1] = y[:, None]
    path_layer = row_layer[span_rows]
    ends = ends.reshape(-1, 2)
    return path_layer, _rotate_by_layer(ends, np.repeat(path_layer, 2), angles, 1.0)
