"""Property-based tests for contour chaining.

``_chain_segments_loop`` is the chaining that :func:`chain_segments`
replaced (per-extension scalar norms, chains of copied points), kept
unchanged as the oracle: contours and open paths must be bit-identical.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import COARSE
from repro.geometry.polygon import Polygon2
from repro.printer import PrintOrientation
from repro.slicer.slicer import (
    _CHAIN_TOL,
    _plane_segments,
    _try_polygon,
    chain_segments,
    layer_heights,
)

from conftest import placed_mesh


def _chain_segments_loop(
    segments: List[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[List[Polygon2], List[np.ndarray]]:
    """The per-tip norm chaining :func:`chain_segments` replaced (the oracle)."""
    if not segments:
        return [], []

    # Snap endpoints onto a grid so shared vertices hash identically
    # (round half to even), and detect zero-length slivers, in one batch.
    # A chain tip is always some segment's endpoint, so its key is read
    # from here rather than re-rounded.
    seg_arr = np.asarray(segments, dtype=float)  # (n, 2, 2)
    lengths = np.linalg.norm(seg_arr[:, 1] - seg_arr[:, 0], axis=1)
    seg_keys = [
        (tuple(a_key), tuple(b_key))
        for a_key, b_key in np.round(seg_arr / _CHAIN_TOL).astype(np.int64).tolist()
    ]

    endpoint_map: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for si in range(len(segments)):
        if lengths[si] < _CHAIN_TOL:
            continue  # zero-length sliver
        a_key, b_key = seg_keys[si]
        endpoint_map.setdefault(a_key, []).append((si, 0))
        endpoint_map.setdefault(b_key, []).append((si, 1))

    used = [False] * len(segments)
    contours: List[Polygon2] = []
    open_paths: List[np.ndarray] = []

    for start in range(len(segments)):
        if used[start]:
            continue
        a, b = segments[start]
        if lengths[start] < _CHAIN_TOL:
            used[start] = True
            continue
        used[start] = True
        chain = [a.copy(), b.copy()]
        # Extend forward from the tail, then (if open) backward from head.
        for direction in (1, 0):
            tip_key = seg_keys[start][direction]
            while True:
                nxt = _take_continuation(endpoint_map, segments, seg_keys, used, tip_key)
                if nxt is None:
                    break
                point, tip_key = nxt
                if direction == 1:
                    chain.append(point)
                else:
                    chain.insert(0, point)
                if np.linalg.norm(chain[-1] - chain[0]) < _CHAIN_TOL and len(chain) > 3:
                    break
            if np.linalg.norm(chain[-1] - chain[0]) < _CHAIN_TOL and len(chain) > 3:
                break
        closed = np.linalg.norm(chain[-1] - chain[0]) < _CHAIN_TOL and len(chain) > 3
        pts = np.array(chain)
        if closed:
            ring = pts[:-1]
            if len(ring) >= 3:
                poly = _try_polygon(ring)
                if poly is not None:
                    contours.append(poly)
                    continue
        open_paths.append(pts)
    return contours, open_paths


def _take_continuation(
    endpoint_map, segments, seg_keys, used, tip_key: Tuple[int, int]
) -> Optional[Tuple[np.ndarray, Tuple[int, int]]]:
    """Pop an unused segment incident at ``tip_key``.

    Returns the segment's far endpoint and that endpoint's snapped key
    (the next chain tip), or ``None`` when no unused segment meets it.
    """
    for si, end in endpoint_map.get(tip_key, []):
        if used[si]:
            continue
        used[si] = True
        return segments[si][1 - end].copy(), seg_keys[si][1 - end]
    return None


def assert_matches_oracle(segments: np.ndarray) -> None:
    """Both the array and the pair-list input chain like the oracle."""
    pairs = [(seg[0], seg[1]) for seg in segments]
    want_contours, want_open = _chain_segments_loop(pairs)
    for given_form in (segments, pairs):
        contours, open_paths = chain_segments(given_form)
        assert len(contours) == len(want_contours)
        assert len(open_paths) == len(want_open)
        for got, want in zip(contours, want_contours):
            assert got.points.dtype == want.points.dtype
            assert got.points.shape == want.points.shape
            assert got.points.tobytes() == want.points.tobytes()
        for got, want in zip(open_paths, want_open):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


#: Offsets, in units of ``_CHAIN_TOL``, that land a chain's tail inside,
#: on and just outside the closure distance, and on either side of a
#: key-grid boundary (keys round half to even).
TIP_OFFSETS = [0.0, 0.3, 0.49, 0.5, 0.51, 0.7, 0.99, 1.0, 1.01, 1.5, 2.0, 2.49, 2.5, 2.51, 3.0]
tip_offset = st.one_of(
    st.sampled_from(TIP_OFFSETS + [-f for f in TIP_OFFSETS]),
    st.floats(min_value=-3.5, max_value=3.5),
).map(lambda f: f * _CHAIN_TOL)
#: Loop origins on and next to key-grid boundaries, near zero and far out.
origin = st.sampled_from([0.0, 0.5e-6, 1.5e-6, -2.5e-6, 12345.5e-6, 37.0000005, -80.0000015])
lattice = st.integers(min_value=-8, max_value=8).map(lambda k: k * 0.5)


@st.composite
def segment_soups(draw):
    segs: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    vertices: List[Tuple[float, float]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ox, oy = draw(origin), draw(origin)
        n = draw(st.integers(min_value=2, max_value=7))
        ring = [(ox + draw(lattice), oy + draw(lattice)) for _ in range(n)]
        tail = (ring[0][0] + draw(tip_offset), ring[0][1] + draw(tip_offset))
        ring_edges = list(zip(ring, ring[1:] + [tail]))
        # Interior vertices off by a fraction of a key, too.
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=n - 2))
            a, b = ring_edges[i]
            moved = (b[0] + draw(tip_offset), b[1] + draw(tip_offset))
            ring_edges[i] = (a, moved)
            ring_edges[i + 1] = (moved if draw(st.booleans()) else b, ring_edges[i + 1][1])
        segs.extend(ring_edges)
        vertices.extend(ring)
    points = vertices or [(0.0, 0.0)]
    # Slivers: zero-length and about-tolerance-length segments.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        p = draw(st.sampled_from(points))
        segs.append((p, (p[0] + draw(tip_offset), p[1] + draw(tip_offset))))
    # T-junctions: a third segment out of an existing vertex.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        p = draw(st.sampled_from(points))
        segs.append((p, (p[0] + draw(lattice) + 0.25, p[1] + draw(lattice))))
    # Duplicates, flipped segments and a random order.
    if segs:
        for i in draw(st.lists(st.integers(min_value=0, max_value=len(segs) - 1), max_size=3)):
            segs.append(segs[i])
    segs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in segs]
    segs = draw(st.permutations(segs))
    return np.array(segs, dtype=float).reshape(-1, 2, 2)


class TestChainingMatchesLoop:
    @given(segment_soups())
    @settings(max_examples=300, deadline=None)
    def test_segment_soups(self, segments):
        assert_matches_oracle(segments)

    def test_empty(self):
        assert_matches_oracle(np.empty((0, 2, 2)))

    def test_tail_within_tolerance_of_head(self):
        """Tails inside, exactly at and beyond ``_CHAIN_TOL``, one and two
        key steps away from the head's key."""
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        offsets = [(0.4, 0.5), (0.7, 0.5), (0.99, 0.0), (1.0, 0.0), (0.0, -1.0),
                   (0.6, 0.8), (1.2, 0.5), (1.5, 0.0), (2.6, 0.5)]
        for dx, dy in offsets:
            tail = (dx * _CHAIN_TOL, dy * _CHAIN_TOL)
            ring = square[1:] + [tail]
            segs = np.array(list(zip(square, ring)), dtype=float)
            assert_matches_oracle(segs)

    def test_sliver_duplicate_and_t_junction(self):
        segs = np.array(
            [
                [[0.0, 0.0], [1.0, 0.0]],
                [[1.0, 0.0], [1.0, 0.0]],
                [[1.0, 0.0], [1.0, 1.0]],
                [[1.0, 0.0], [1.0, 1.0]],
                [[1.0, 1.0], [0.0, 1.0]],
                [[1.0, 0.0], [2.0, 0.0]],
                [[0.0, 1.0], [0.0, 0.0]],
            ]
        )
        assert_matches_oracle(segs)


@pytest.mark.parametrize("orientation", list(PrintOrientation), ids=lambda o: o.value)
def test_real_bar_every_orientation(randomized_bar_201, orientation):
    """Every slice plane of the seed-201 randomized bar, chained both ways."""
    from repro.pipeline.chain import ProcessChain

    settings = ProcessChain().settings
    mesh = placed_mesh(randomized_bar_201, COARSE, orientation)
    tris = mesh.triangles
    bounds = mesh.bounds
    for z in layer_heights(float(bounds.lo[2]), float(bounds.hi[2]), settings.layer_height_mm):
        hit = (tris[:, :, 2].min(axis=1) <= z) & (tris[:, :, 2].max(axis=1) >= z)
        assert_matches_oracle(_plane_segments(tris[hit], float(z)))
