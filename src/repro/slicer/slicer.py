"""Core slicing: cut a mesh into layers of closed contours.

Each layer plane intersects every triangle into a segment; segments are
chained into loops by endpoint proximity.  Chains that fail to close are
kept as *open paths* - they are the geometric signature of a damaged or
non-watertight STL, one of the "manifold geometry errors" a reviewer
looks for (Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.plane import EPS, Plane
from repro.geometry.polygon import Polygon2
from repro.slicer.settings import SlicerSettings
from repro.mesh.trimesh import TriangleMesh

#: Endpoint snap distance for chaining slice segments, mm.
_CHAIN_TOL = 1e-6


@dataclass
class Layer:
    """One slice: height, closed contours, and any open (broken) paths."""

    z: float
    contours: List[Polygon2] = field(default_factory=list)
    open_paths: List[np.ndarray] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.contours and not self.open_paths

    @property
    def total_area(self) -> float:
        """Even-odd filled area of the layer (holes subtract)."""
        return abs(sum(c.signed_area for c in self.contours))

    def contains(self, point: np.ndarray) -> bool:
        """Even-odd containment across all contours."""
        count = sum(1 for c in self.contours if c.contains(point))
        return count % 2 == 1


@dataclass
class SliceResult:
    """All layers of one sliced mesh."""

    layers: List[Layer]
    settings: SlicerSettings

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def has_open_paths(self) -> bool:
        return any(layer.open_paths for layer in self.layers)

    @property
    def z_values(self) -> np.ndarray:
        return np.array([layer.z for layer in self.layers])


def layer_heights(z_min: float, z_max: float, layer_height: float) -> np.ndarray:
    """Slice plane heights: mid-layer planes from bottom to top."""
    if z_max <= z_min:
        raise ValueError("z_max must exceed z_min")
    n = max(int(np.ceil((z_max - z_min) / layer_height)), 1)
    return z_min + (np.arange(n) + 0.5) * layer_height


def slice_mesh(
    mesh: TriangleMesh,
    settings: Optional[SlicerSettings] = None,
    z_values: Optional[np.ndarray] = None,
) -> SliceResult:
    """Slice ``mesh`` into layers under ``settings``.

    ``z_values`` overrides the default mid-layer plane heights (used by
    tests and by the seam analyzer, which slices several meshes on a
    shared set of planes).
    """
    settings = settings or SlicerSettings()
    scale = settings.unit_scale
    work = mesh if scale == 1.0 else TriangleMesh(mesh.vertices * scale, mesh.faces)
    bounds = work.bounds
    if z_values is None:
        z_values = layer_heights(
            float(bounds.lo[2]), float(bounds.hi[2]), settings.layer_height_mm
        )

    tris = work.triangles
    tri_zmin = tris[:, :, 2].min(axis=1)
    tri_zmax = tris[:, :, 2].max(axis=1)
    # Sort triangles by zmin for an active-set sweep over ascending planes.
    order = np.argsort(tri_zmin)

    layers: List[Layer] = []
    for z in np.sort(np.asarray(z_values, dtype=float)):
        candidates = order[(tri_zmin[order] <= z) & (tri_zmax[order] >= z)]
        segments = _plane_segments(tris[candidates], float(z))
        contours, open_paths = chain_segments(segments)
        layers.append(Layer(z=float(z), contours=contours, open_paths=open_paths))
    return SliceResult(layers=layers, settings=settings)


def _plane_segments(tris: np.ndarray, z: float) -> np.ndarray:
    """All triangle intersection segments with the plane at height ``z``.

    Vectorized equivalent of calling
    :meth:`~repro.geometry.plane.Plane.intersect_triangle` on each
    triangle of ``tris`` (shape ``(n, 3, 3)``) in order: the same
    formulas run on the same float64 values, so the emitted 2D segments
    are bit-identical to the scalar loop's.  Returns an ``(n, 2, 2)``
    array: segment ``k`` runs from ``[k, 0]`` to ``[k, 1]``.
    """
    if len(tris) == 0:
        return np.empty((0, 2, 2))
    d = tris[:, :, 2] - z  # signed distance to a horizontal plane
    on = np.abs(d) < EPS
    pts = np.empty_like(tris)
    valid = np.empty((len(tris), 3), dtype=bool)
    for i in range(3):
        j = (i + 1) % 3
        di, dj = d[:, i], d[:, j]
        # Edge i->j contributes vertex i when it lies on the plane, or
        # the crossing point when the endpoints straddle it; an edge
        # whose far vertex is on the plane contributes nothing (that
        # vertex is captured by its own outgoing edge).
        cross = ~on[:, i] & ~on[:, j] & ((di > 0) != (dj > 0))
        t = di / np.where(cross, di - dj, 1.0)
        crossing = tris[:, i] + t[:, None] * (tris[:, j] - tris[:, i])
        pts[:, i] = np.where(on[:, i, None], tris[:, i], crossing)
        valid[:, i] = on[:, i] | cross
    # Order-preserving dedup of the up-to-three candidate points (a
    # vertex on the plane appears once per incident crossing edge).
    d01 = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    d02 = np.linalg.norm(pts[:, 2] - pts[:, 0], axis=1)
    d12 = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
    keep0 = valid[:, 0]
    keep1 = valid[:, 1] & ~(keep0 & (d01 < EPS))
    keep2 = valid[:, 2] & ~(keep0 & (d02 < EPS)) & ~(keep1 & (d12 < EPS))
    keep = np.stack([keep0, keep1, keep2], axis=1)
    # Exactly two distinct points make a segment; coplanar triangles
    # yield none (their area belongs to the layers above and below).
    two = (keep.sum(axis=1) == 2) & ~on.all(axis=1)
    rows = np.nonzero(two)[0]
    kept = keep[rows]
    first = kept.argmax(axis=1)
    last = 2 - kept[:, ::-1].argmax(axis=1)
    return np.stack([pts[rows, first, :2], pts[rows, last, :2]], axis=1)


def chain_segments(segments) -> Tuple[List[Polygon2], List[np.ndarray]]:
    """Chain 2D segments into closed contours and open polylines.

    ``segments`` is an ``(n, 2, 2)`` array or a sequence of ``(a, b)``
    point pairs.  Each unused segment starts a chain that grows from its tail, then
    (if still open) from its head, by any unused segment whose endpoint
    snaps to the same grid key as the tip; zero-length slivers are
    dropped.  A chain of more than three points whose tail lies within
    ``_CHAIN_TOL`` of its head is closed.  Chains are built as endpoint
    indices and their float64 points gathered once at the end.

    The closure test runs on every extension, so it first compares the
    tips' snapped keys: keys more than two grid steps apart on an axis
    are more than ``_CHAIN_TOL`` apart, and only a near pair pays for
    the distance, ``sqrt(d . d)`` - exactly what ``np.linalg.norm``
    computes for a 1-D vector.
    """
    if len(segments) == 0:
        return [], []

    # Snap endpoints onto a grid so shared vertices hash identically
    # (round half to even), and detect zero-length slivers, in one batch.
    # Endpoint ``end`` of segment ``si`` is flat index ``2 * si + end``,
    # so the far end of endpoint ``q`` is ``q ^ 1``.
    seg_arr = np.asarray(segments, dtype=float)  # (n, 2, 2)
    points = seg_arr.reshape(-1, 2)
    lengths = np.linalg.norm(seg_arr[:, 1] - seg_arr[:, 0], axis=1)
    live = (~(lengths < _CHAIN_TOL)).tolist()  # a NaN length is no sliver
    keys = list(map(tuple, np.round(points / _CHAIN_TOL).astype(np.int64).tolist()))

    endpoint_map: Dict[Tuple[int, int], List[int]] = {}
    for si in range(len(segments)):
        if live[si]:
            endpoint_map.setdefault(keys[2 * si], []).append(2 * si)
            endpoint_map.setdefault(keys[2 * si + 1], []).append(2 * si + 1)

    def closes(head: int, tail: int) -> bool:
        hx, hy = keys[head]
        tx, ty = keys[tail]
        if abs(tx - hx) > 2 or abs(ty - hy) > 2:
            return False
        d = points[tail] - points[head]
        return math.sqrt(d.dot(d)) < _CHAIN_TOL

    used = [False] * len(segments)
    contours: List[Polygon2] = []
    open_paths: List[np.ndarray] = []

    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        if not live[start]:
            continue
        # ``back`` holds the head side in reverse, ``ahead`` the tail side.
        back, ahead = [2 * start], [2 * start + 1]
        closed = False
        for tips in (ahead, back):
            while not closed:
                for q in endpoint_map.get(keys[tips[-1]], ()):
                    if not used[q >> 1]:
                        used[q >> 1] = True
                        tips.append(q ^ 1)
                        break
                else:
                    break
                closed = len(back) + len(ahead) > 3 and closes(back[-1], ahead[-1])
        pts = points[back[::-1] + ahead]
        if closed:
            ring = pts[:-1]
            if len(ring) >= 3:
                poly = _try_polygon(ring)
                if poly is not None:
                    contours.append(poly)
                    continue
        open_paths.append(pts)
    return contours, open_paths


def _try_polygon(ring: np.ndarray) -> Optional[Polygon2]:
    try:
        poly = Polygon2(ring)
    except ValueError:
        return None
    if poly.area < 1e-10:
        return None
    return poly
