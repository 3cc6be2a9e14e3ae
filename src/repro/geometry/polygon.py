"""Simple 2D polygons: area, orientation, containment and rasterization.

Slice contours and infill regions are represented as ``Polygon2``; the
deposition simulator rasterizes them onto voxel layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.geometry.bbox import Aabb
from repro.geometry.vec import EPS


@dataclass(frozen=True)
class Polygon2:
    """A simple (non self-intersecting) polygon given by its vertex ring.

    The ring is stored open (no repeated first vertex).  Vertex order
    encodes orientation; outer contours are conventionally CCW and holes
    CW, matching slicer output.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("a polygon needs an (n>=3, 2) vertex array")
        # Drop an explicitly repeated closing vertex.  sqrt(d.dot(d)) is
        # what np.linalg.norm computes for a 1-D vector, without its
        # per-call overhead.
        d = pts[0] - pts[-1]
        if math.sqrt(d.dot(d)) < EPS:
            pts = pts[:-1]
        if pts.shape[0] < 3:
            raise ValueError("degenerate polygon after closing-vertex removal")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def signed_area(self) -> float:
        """Shoelace area; positive for counter-clockwise rings."""
        x = self.points[:, 0]
        y = self.points[:, 1]
        # concatenate((a[1:], a[:1])) is np.roll(a, -1) without its
        # generic-axis overhead.
        return 0.5 * float(
            np.dot(x, np.concatenate((y[1:], y[:1])))
            - np.dot(y, np.concatenate((x[1:], x[:1])))
        )

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0

    @property
    def perimeter(self) -> float:
        d = np.roll(self.points, -1, axis=0) - self.points
        return float(np.sum(np.linalg.norm(d, axis=1)))

    @property
    def centroid(self) -> np.ndarray:
        """Area centroid (not the vertex average)."""
        p = self.points
        q = np.roll(p, -1, axis=0)
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        a = float(np.sum(cross)) / 2.0
        if abs(a) < EPS:
            return p.mean(axis=0)
        cx = float(np.sum((p[:, 0] + q[:, 0]) * cross)) / (6.0 * a)
        cy = float(np.sum((p[:, 1] + q[:, 1]) * cross)) / (6.0 * a)
        return np.array([cx, cy])

    @property
    def bounds(self) -> Aabb:
        return Aabb.from_points(self.points)

    def reversed(self) -> "Polygon2":
        return Polygon2(self.points[::-1].copy())

    def contains(self, point: np.ndarray) -> bool:
        """Even-odd point-in-polygon test.  Boundary points count inside."""
        x, y = float(point[0]), float(point[1])
        p = self.points
        q = np.roll(p, -1, axis=0)
        inside = False
        for (x1, y1), (x2, y2) in zip(p, q):
            # Boundary check.
            dx, dy = x2 - x1, y2 - y1
            seg_len2 = dx * dx + dy * dy
            if seg_len2 > 0:
                t = ((x - x1) * dx + (y - y1) * dy) / seg_len2
                t = min(1.0, max(0.0, t))
                if (x - (x1 + t * dx)) ** 2 + (y - (y1 + t * dy)) ** 2 < EPS:
                    return True
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
                if x < x_cross:
                    inside = not inside
        return inside

    def scanline_spans(self, y: float) -> List[tuple]:
        """Interior x-spans of the polygon at height ``y``.

        Returns a list of ``(x_enter, x_exit)`` pairs, sorted by x.  This
        is the primitive behind raster infill and voxel rasterization.
        """
        p = self.points
        q = np.roll(p, -1, axis=0)
        crossings: List[float] = []
        for (x1, y1), (x2, y2) in zip(p, q):
            if (y1 > y) != (y2 > y):
                crossings.append(x1 + (y - y1) / (y2 - y1) * (x2 - x1))
        crossings.sort()
        return [(crossings[i], crossings[i + 1]) for i in range(0, len(crossings) - 1, 2)]

    def translated(self, offset: Sequence[float]) -> "Polygon2":
        return Polygon2(self.points + np.asarray(offset, dtype=float))

    def resampled(self, max_edge: float) -> "Polygon2":
        """Insert vertices so that no edge is longer than ``max_edge``."""
        if max_edge <= 0:
            raise ValueError("max_edge must be positive")
        out: List[np.ndarray] = []
        p = self.points
        q = np.roll(p, -1, axis=0)
        for a, b in zip(p, q):
            out.append(a)
            length = float(np.linalg.norm(b - a))
            n_extra = int(np.floor(length / max_edge))
            for k in range(1, n_extra + 1):
                t = k / (n_extra + 1)
                out.append(a * (1 - t) + b * t)
        return Polygon2(np.array(out))


def regular_polygon(n: int, radius: float, center: Sequence[float] = (0.0, 0.0)) -> Polygon2:
    """A CCW regular ``n``-gon, useful for tests and synthetic parts."""
    if n < 3:
        raise ValueError("need at least 3 sides")
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1) * float(radius)
    return Polygon2(pts + np.asarray(center, dtype=float))


def rectangle(width: float, height: float, center: Sequence[float] = (0.0, 0.0)) -> Polygon2:
    """A CCW axis-aligned rectangle centred at ``center``."""
    if width <= 0 or height <= 0:
        raise ValueError("rectangle dimensions must be positive")
    cx, cy = float(center[0]), float(center[1])
    w, h = width / 2.0, height / 2.0
    return Polygon2(
        np.array(
            [[cx - w, cy - h], [cx + w, cy - h], [cx + w, cy + h], [cx - w, cy + h]]
        )
    )
