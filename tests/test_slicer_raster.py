"""Equivalence tests for the batched raster kernel (repro.slicer.raster).

The kernel's contract is *bit-identity* with the scalar reference
implementations it replaced: same crossings, same even-odd pairing,
same cell snapping.  Every test here holds the vectorized path equal -
``np.array_equal``, not ``allclose`` - to a retained scalar oracle:

* :func:`rasterize_contours` vs. :func:`rasterize_contours_reference`;
* :func:`scanline_spans_batch` vs. per-``y`` :func:`region_spans`;
* the packed span fill :func:`fill_spans_packed` and
  :func:`rasterize_stack` vs. the boolean difference-array fill it
  replaced (:func:`fill_spans_reference`, kept here as the oracle);
* :func:`rasterize_stack` vs. per-layer :func:`rasterize_frame`;
* the sparse, ``searchsorted``-ranged :func:`edge_crossings` vs. the
  dense (scanlines x edges) matrix it replaced
  (:func:`edge_crossings_dense`, kept here as the oracle);
* the shift-kernel bead-merge morphology vs. scipy's
  ``binary_closing`` / ``binary_fill_holes``;
* :func:`repro.slicer.slicer._plane_segments` vs. per-triangle
  :meth:`Plane.intersect_triangle`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.geometry.plane import Plane
from repro.geometry.polygon import Polygon2
from repro.printer.artifact import pack_rows
from repro.printer.deposition import (
    _cross_closing,
    _fill_holes_stack,
    _unique_layers,
)
from repro.slicer.preview import (
    rasterize_contours,
    rasterize_contours_reference,
)
from repro.slicer.raster import (
    _pair_crossings,
    contour_edges,
    edge_crossings,
    fill_spans_packed,
    rasterize_frame,
    rasterize_stack,
    scanline_spans_batch,
)
from repro.slicer.slicer import _plane_segments
from repro.slicer.toolpath import region_spans


def rect(x0, y0, w, h, ccw=True):
    pts = np.array(
        [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]], dtype=float
    )
    return Polygon2(pts if ccw else pts[::-1])


def frame_for(contours, cell):
    """Self-sized frame around a contour set (as ``preview_layer`` does)."""
    pts = np.vstack([c.points for c in contours])
    lo = pts.min(axis=0) - cell
    hi = pts.max(axis=0) + cell
    nx = max(int(np.ceil((hi[0] - lo[0]) / cell)), 1)
    ny = max(int(np.ceil((hi[1] - lo[1]) / cell)), 1)
    return lo, nx, ny


def assert_frames_identical(contours, lo, nx, ny, cell):
    fast = rasterize_contours(contours, lo, nx, ny, cell)
    slow = rasterize_contours_reference(contours, lo, nx, ny, cell)
    assert fast.shape == slow.shape == (ny, nx)
    assert np.array_equal(fast, slow)
    return fast


def fill_spans_reference(span_rows, x_in, x_out, x0, nx, cell, n_rows):
    """The boolean difference-array span fill the packed one replaced.

    A span fills cells ``floor((x_in - x0)/cell)`` up to (exclusive)
    ``ceil((x_out - x0)/cell)``, clipped to the frame; overlapping spans
    union through a per-row int32 difference array.
    """
    grid = np.zeros((n_rows, nx), dtype=bool)
    if span_rows.size == 0:
        return grid
    i0 = np.floor((x_in - x0) / cell)
    i1 = np.ceil((x_out - x0) / cell)
    inside = (i1 > 0) & (i0 < nx)
    if not np.any(inside):
        return grid
    rows = span_rows[inside]
    lo = np.clip(i0[inside], 0, nx).astype(np.intp)
    hi = np.clip(i1[inside], 0, nx).astype(np.intp)
    delta = np.zeros((n_rows, nx + 1), dtype=np.int32)
    np.add.at(delta, (rows, lo), 1)
    np.add.at(delta, (rows, hi), -1)
    np.cumsum(delta[:, :-1], axis=1, out=delta[:, :-1])
    np.greater(delta[:, :-1], 0, out=grid)
    return grid


def edge_crossings_dense(p, q, ys):
    """The dense crossing kernel the sparse one replaced (the oracle).

    Builds the full (n_scanlines, n_edges) matrix of the half-open rule
    ``(py > y) != (qy > y)`` and returns its crossings row-major.
    """
    ys = np.asarray(ys, dtype=float)
    if p.shape[0] == 0 or ys.shape[0] == 0:
        z = np.empty(0, dtype=np.intp)
        return z, z.copy(), np.empty(0, dtype=float)
    above_p = p[:, 1][None, :] > ys[:, None]
    above_q = q[:, 1][None, :] > ys[:, None]
    rows, cols = np.nonzero(above_p != above_q)
    py, qy = p[cols, 1], q[cols, 1]
    px, qx = p[cols, 0], q[cols, 0]
    xs = px + (ys[rows] - py) / (qy - py) * (qx - px)
    return rows, cols, xs


def frame_reference(contours, lo, nx, ny, cell):
    """One layer through the dense crossings and the boolean fill."""
    ys = lo[1] + (np.arange(ny, dtype=float) + 0.5) * cell
    p, q = contour_edges(contours)
    rows, _, xs = edge_crossings_dense(p, q, ys)
    span_rows, x_in, x_out = _pair_crossings(rows, xs, ny)
    return fill_spans_reference(
        span_rows, x_in, x_out, float(lo[0]), nx, cell, ny
    )


def stack_reference(layer_contours, lo, nx, ny, cell):
    """``pack_rows`` of the boolean per-layer oracle, stacked."""
    layers = [frame_reference(c, lo, nx, ny, cell) for c in layer_contours]
    return pack_rows(np.array(layers, dtype=bool).reshape(-1, ny, nx))


def span_end(nx):
    """A span endpoint (in cells): on a byte boundary, a cell edge, a
    fraction of a cell, or out of frame on either side."""
    return st.one_of(
        st.integers(-2, (nx + 15) // 8).map(lambda b: 8.0 * b),
        st.integers(-3, nx + 3).map(float),
        st.floats(-4.0, nx + 4.0, allow_nan=False),
    )


@st.composite
def span_sets(draw):
    """Spans that overlap, touch, sit inside one byte or leave the frame."""
    nx = draw(st.integers(1, 70))
    n_rows = draw(st.integers(1, 4))
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        row = draw(st.integers(0, n_rows - 1))
        a = draw(span_end(nx))
        kind = draw(st.sampled_from(("free", "touch", "in_byte")))
        if kind == "touch" and spans:
            a = spans[-1][2]  # starts where the previous span ended
        if kind == "in_byte":
            offset = draw(st.floats(0.0, 6.5))
            a = 8.0 * draw(st.integers(-1, (nx + 7) // 8)) + offset
            width = draw(st.floats(1e-6, 7.0 - offset))
        else:
            width = draw(st.floats(1e-6, nx + 8.0))
        spans.append((row, a, a + width))
    rows = np.array([r for r, _, _ in spans], dtype=np.intp)
    x_in = np.array([a for _, a, _ in spans], dtype=float)
    x_out = np.array([b for _, _, b in spans], dtype=float)
    return nx, n_rows, rows, x_in, x_out


class TestPackedSpanFill:
    """fill_spans_packed / rasterize_stack == pack_rows of the bool fill."""

    @settings(max_examples=400, deadline=None)
    @given(span_sets(), st.sampled_from((1.0, 0.5, 0.3)),
           st.sampled_from((0.0, -1.25, 3.0)))
    def test_matches_bool_fill(self, spans, cell, x0):
        nx, n_rows, rows, x_in, x_out = spans
        x_in, x_out = x0 + x_in * cell, x0 + x_out * cell
        got = fill_spans_packed(rows, x_in, x_out, x0, nx, cell, n_rows)
        want = fill_spans_reference(rows, x_in, x_out, x0, nx, cell, n_rows)
        assert got.shape == (n_rows, (nx + 7) // 8)
        np.testing.assert_array_equal(got, pack_rows(want))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 70),
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(-3.0, 12.0, allow_nan=False),
                    st.floats(-3.0, 8.0, allow_nan=False),
                    st.floats(0.0, 10.0, allow_nan=False),
                    st.floats(0.0, 6.0, allow_nan=False),
                    st.booleans(),
                ),
                max_size=4,
            ),
            max_size=4,
        ),
    )
    def test_stack_matches_per_layer_oracle(self, nx, layers):
        """Random (nested, overlapping, clipped) rectangles per layer."""
        cell = 8.0 / max(nx, 1) * 1.25
        lo = np.array([-1.0, -1.0])
        layer_contours = [
            [rect(x, y, w + 1e-3, h + 1e-3, ccw) for x, y, w, h, ccw in layer]
            for layer in layers
        ]
        got = rasterize_stack(layer_contours, lo, nx, 7, cell)
        np.testing.assert_array_equal(
            got, stack_reference(layer_contours, lo, nx, 7, cell)
        )

    def test_byte_boundary_edges(self):
        """Rectangle edges exactly on byte and cell boundaries."""
        layers = [
            [rect(0.0, 0.0, 8.0, 3.0)],      # one whole byte
            [rect(8.0, 0.0, 16.0, 3.0)],     # whole bytes, not the first
            [rect(3.0, 0.0, 2.0, 3.0)],      # inside one byte
            [rect(5.0, 0.0, 14.0, 3.0)],     # head, whole byte, tail
            [rect(-4.0, 0.0, 40.0, 3.0)],    # clipped on both sides
            [rect(0.0, 0.0, 3.5, 3.0), rect(3.6, 0.0, 4.0, 3.0)],  # overlap
        ]
        for nx in (1, 7, 8, 9, 16, 23, 24, 25):
            got = rasterize_stack(layers, np.zeros(2), nx, 4, 1.0)
            np.testing.assert_array_equal(
                got, stack_reference(layers, np.zeros(2), nx, 4, 1.0)
            )


class TestFrameEquivalence:
    """rasterize_contours == the scalar per-scanline oracle, bit for bit."""

    def test_tensile_bar_layers(self, split_coarse_xy):
        """Every layer of a real printed part, on the deposition frame."""
        artifact = split_coarse_xy.artifact
        nz, ny, nx = artifact.model.shape
        cell = artifact.cell_mm
        lo = artifact.origin
        for layer in split_coarse_xy.slices.layers:
            assert_frames_identical(layer.contours, lo, nx, ny, cell)

    def test_empty_contour_list(self):
        grid = assert_frames_identical([], np.zeros(2), 8, 6, 0.5)
        assert not grid.any()

    def test_zero_area_contour(self):
        """Collinear ring: no interior, identically empty on both paths."""
        flat = Polygon2(np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]]))
        grid = assert_frames_identical([flat], np.array([-1.0, -1.0]), 12, 8, 0.5)
        assert not grid.any()

    def test_sliver_thinner_than_epsilon(self):
        """A span narrower than SPAN_EPS is dropped by both paths."""
        sliver = rect(1.0, 0.0, 1e-12, 3.0)
        grid = assert_frames_identical([sliver], np.zeros(2), 8, 8, 0.5)
        assert not grid.any()

    def test_horizontal_edge_exactly_on_scanline(self):
        """Edges lying on a scanline: the half-open rule fires identically.

        With ``lo=(0,0)`` and ``cell=1`` the scanlines run through
        y = 0.5, 1.5, ...; this rectangle's bottom and top edges sit
        exactly on two of them.
        """
        box = rect(0.0, 0.5, 4.0, 2.0)  # spans y in [0.5, 2.5]
        grid = assert_frames_identical([box], np.zeros(2), 6, 5, 1.0)
        # Rows 1 (y=1.5) are interior; the on-edge rows match the oracle
        # whatever the parity rule decides.
        assert grid[1, :4].all()

    def test_vertex_exactly_on_scanline(self):
        """A diamond tip touching a scanline must count once, not twice."""
        diamond = Polygon2(
            np.array([[2.0, 0.5], [3.5, 2.0], [2.0, 3.5], [0.5, 2.0]])
        )
        assert_frames_identical([diamond], np.zeros(2), 5, 5, 1.0)

    def test_nested_holes_even_odd(self):
        """Outer boundary, hole, island: parity fills ring and island."""
        contours = [
            rect(0.0, 0.0, 10.0, 10.0),            # outer, CCW
            rect(2.0, 2.0, 6.0, 6.0, ccw=False),   # hole, CW
            rect(4.0, 4.0, 2.0, 2.0),              # island inside the hole
        ]
        lo = np.array([-1.0, -1.0])
        grid = assert_frames_identical(contours, lo, 24, 24, 0.5)
        # Cell centre at (x, y): iy = (y - lo[1])/cell - 0.5 etc.
        def cell_at(x, y):
            return grid[int((y - lo[1]) / 0.5 - 0.5), int((x - lo[0]) / 0.5 - 0.5)]

        assert cell_at(1.0, 1.0)        # between outer and hole: filled
        assert not cell_at(3.0, 3.0)    # inside the hole: empty
        assert cell_at(5.0, 5.0)        # on the island: filled again

    def test_spans_partially_outside_frame(self):
        """Clipping of spans that start before / end after the frame."""
        wide = rect(-5.0, 0.0, 20.0, 3.0)
        assert_frames_identical([wide], np.zeros(2), 8, 6, 0.5)
        fully_left = rect(-10.0, 0.0, 3.0, 3.0)
        grid = assert_frames_identical([fully_left], np.zeros(2), 8, 6, 0.5)
        assert not grid.any()

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-5.0, 5.0, allow_nan=False),
                st.floats(-5.0, 5.0, allow_nan=False),
            ),
            min_size=3,
            max_size=8,
        )
    )
    def test_random_polygons_property(self, points):
        """Arbitrary (even self-intersecting) rings rasterize identically.

        Both paths implement the same even-odd crossing rule, so the
        equivalence must hold for any vertex ring, not just the simple
        polygons the slicer emits.
        """
        try:
            poly = Polygon2(np.asarray(points, dtype=float))
        except ValueError:
            return  # degenerate ring the slicer would never produce
        assert_frames_identical([poly], np.array([-6.0, -6.0]), 24, 24, 0.5)


class TestScanlineSpansBatch:
    """scanline_spans_batch == region_spans called once per scanline."""

    def test_tensile_bar_layer(self, split_coarse_xy):
        layer = max(
            split_coarse_xy.slices.layers, key=lambda l: len(l.contours)
        )
        ys = np.arange(0.0, 30.0, 0.37)
        batched = scanline_spans_batch(layer.contours, ys)
        assert len(batched) == len(ys)
        for y, spans in zip(ys, batched):
            assert spans == region_spans(layer.contours, float(y))

    def test_vertex_and_edge_on_scanline(self):
        contours = [rect(0.0, 1.0, 4.0, 2.0), rect(6.0, 0.0, 2.0, 4.0)]
        ys = [0.5, 1.0, 2.0, 3.0, 3.5]  # includes both horizontal edges
        batched = scanline_spans_batch(contours, ys)
        for y, spans in zip(ys, batched):
            assert spans == region_spans(contours, y)

    def test_empty_inputs(self):
        assert scanline_spans_batch([], [0.0, 1.0]) == [[], []]
        assert scanline_spans_batch([rect(0, 0, 1, 1)], []) == []


def row_major(rows, cols, xs):
    """Crossings sorted by (row, edge), the dense kernel's order."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], xs[order]


def assert_crossings_match(p, q, ys):
    got = row_major(*edge_crossings(p, q, ys))
    want = edge_crossings_dense(p, q, ys)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    return got


#: Scanline heights and vertex coordinates on a coarse lattice, so that
#: vertices land exactly on scanlines and edges run horizontal.
lattice = st.integers(-8, 8).map(lambda k: k * 0.5)
free_y = st.floats(-5.0, 5.0, allow_nan=False)


class TestSparseCrossings:
    """Sparse edge_crossings == the dense matrix oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(lattice, free_y), st.one_of(lattice, free_y),
                      st.one_of(lattice, free_y), st.one_of(lattice, free_y)),
            max_size=12,
        ),
        st.lists(st.one_of(lattice, free_y), max_size=12),
        st.booleans(),
    )
    def test_random_edges_and_scanlines(self, edges, ys, ascending):
        """Any edges; sorted or unsorted (duplicated) scanlines."""
        p = np.array([(a, b) for a, b, _, _ in edges], dtype=float).reshape(-1, 2)
        q = np.array([(c, d) for _, _, c, d in edges], dtype=float).reshape(-1, 2)
        ys = np.array(sorted(ys) if ascending else ys, dtype=float)
        assert_crossings_match(p, q, ys)

    def test_vertex_on_scanline_counts_once(self):
        # A diamond whose side vertices sit exactly on y = 0.
        pts = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        p, q = pts, np.roll(pts, -1, axis=0)
        rows, _, xs = assert_crossings_match(p, q, np.array([-1.0, 0.0, 1.0]))
        assert rows.tolist() == [0, 0, 1, 1]
        assert sorted(xs[rows == 1].tolist()) == [-1.0, 1.0]

    def test_horizontal_edges_never_cross(self):
        p = np.array([[0.0, 1.0], [2.0, 3.0]])
        q = np.array([[5.0, 1.0], [-2.0, 3.0]])
        rows, _, _ = assert_crossings_match(p, q, np.array([0.5, 1.0, 3.0]))
        assert rows.size == 0

    def test_edges_ending_on_first_and_last_scanline(self):
        ys = np.array([0.0, 0.5, 1.0, 1.5])
        p = np.array([[0.0, 0.0], [1.0, 1.5], [2.0, -1.0], [3.0, 1.5]])
        q = np.array([[0.0, 1.5], [1.0, 0.0], [2.0, 0.0], [3.0, 9.0]])
        rows, cols, _ = assert_crossings_match(p, q, ys)
        # [min_y, max_y): a bottom end on a scanline crosses it, a top
        # end does not.
        assert rows[cols == 0].tolist() == [0, 1, 2]
        assert rows[cols == 2].tolist() == []
        assert rows[cols == 3].tolist() == [3]

    def test_unsorted_scanlines_keep_their_indices(self):
        p = np.array([[0.0, -1.0]])
        q = np.array([[2.0, 1.0]])
        ys = np.array([0.5, -0.5, 0.0, 0.5])
        rows, _, xs = assert_crossings_match(p, q, ys)
        assert rows.tolist() == [0, 1, 2, 3]
        assert xs.tolist() == [1.5, 0.5, 1.0, 1.5]

    def test_empty_inputs(self):
        none = np.empty((0, 2))
        assert_crossings_match(none, none, np.array([0.0, 1.0]))
        one = np.array([[0.0, 0.0]])
        assert_crossings_match(one, one + 1.0, np.array([]))

    def test_real_print_layers(self, split_coarse_xy):
        artifact = split_coarse_xy.artifact
        _, ny, _ = artifact.shape
        ys = artifact.origin[1] + (np.arange(ny, dtype=float) + 0.5) * artifact.cell_mm
        for layer in split_coarse_xy.slices.layers[::5]:
            p, q = contour_edges(layer.contours)
            assert_crossings_match(p, q, ys)
            assert_crossings_match(p, q, ys[::-1])


class TestRasterizeStack:
    """rasterize_stack == packing rasterize_frame layer by layer.

    The stack is row-packed; every layer is also held to the scalar
    per-scanline oracle and to the boolean difference-array fill.
    """

    @staticmethod
    def _layers():
        return [
            [rect(0.0, 0.0, 8.0, 6.0)],
            [],  # an empty layer mid-stack
            [rect(1.0, 1.0, 6.0, 4.0), rect(2.0, 2.0, 2.0, 2.0, ccw=False)],
            [rect(0.0, 0.0, 8.0, 6.0)],  # repeats layer 0
            [rect(3.0, 0.5, 2.0, 5.0)],
        ]

    def test_matches_per_layer(self):
        lo = np.array([-1.0, -1.0])
        nx, ny, cell = 20, 16, 0.5
        stack = rasterize_stack(self._layers(), lo, nx, ny, cell)
        assert stack.shape == (5, ny, (nx + 7) // 8)
        assert stack.dtype == np.uint8
        for iz, contours in enumerate(self._layers()):
            assert np.array_equal(
                stack[iz], pack_rows(rasterize_frame(contours, lo, nx, ny, cell))
            )
            assert np.array_equal(
                stack[iz],
                pack_rows(rasterize_contours_reference(contours, lo, nx, ny, cell)),
            )
        assert np.array_equal(
            stack, stack_reference(self._layers(), lo, nx, ny, cell)
        )

    def test_real_print_stack(self, split_coarse_xy):
        artifact = split_coarse_xy.artifact
        nz, ny, nx = artifact.shape
        layer_contours = [l.contours for l in split_coarse_xy.slices.layers]
        stack = rasterize_stack(
            layer_contours, artifact.origin, nx, ny, artifact.cell_mm
        )
        for iz in range(min(nz, len(layer_contours))):
            assert np.array_equal(
                stack[iz],
                pack_rows(rasterize_frame(
                    layer_contours[iz], artifact.origin, nx, ny, artifact.cell_mm
                )),
            )
        assert np.array_equal(
            stack,
            stack_reference(
                layer_contours, artifact.origin, nx, ny, artifact.cell_mm
            ),
        )

    def test_empty_stack(self):
        stack = rasterize_stack([], np.zeros(2), 4, 3, 1.0)
        assert stack.shape == (0, 3, 1)

    def test_all_layers_empty(self):
        stack = rasterize_stack([[], []], np.zeros(2), 4, 3, 1.0)
        assert stack.shape == (2, 3, 1)
        assert not stack.any()


@pytest.fixture(scope="module")
def noise_stack():
    rng = np.random.default_rng(20260806)
    return rng.random((5, 24, 30)) < 0.45


class TestBeadMergeMorphology:
    """The shift-kernel morphology == scipy's, structure-for-structure."""

    CROSS = ndimage.generate_binary_structure(2, 1)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_closing_matches_scipy(self, noise_stack, iterations):
        ours = _cross_closing(noise_stack, iterations)
        for iz in range(noise_stack.shape[0]):
            ref = ndimage.binary_closing(
                noise_stack[iz], structure=self.CROSS, iterations=iterations
            )
            assert np.array_equal(ours[iz], ref)

    def test_fill_holes_matches_scipy(self, noise_stack):
        ours = _fill_holes_stack(noise_stack)
        for iz in range(noise_stack.shape[0]):
            ref = ndimage.binary_fill_holes(noise_stack[iz], structure=self.CROSS)
            assert np.array_equal(ours[iz], ref)

    def test_fill_holes_does_not_leak_across_layers(self):
        """A cavity open in the layer above must still fill in its own."""
        stack = np.zeros((2, 7, 7), dtype=bool)
        stack[0, 1:6, 1:6] = True
        stack[0, 3, 3] = False  # enclosed within layer 0
        # Layer 1 is empty: a 3D fill would drain layer 0's hole through it.
        filled = _fill_holes_stack(stack)
        assert filled[0, 3, 3]
        assert not filled[1].any()

    def test_unique_layers_roundtrip(self, noise_stack):
        stack = np.concatenate([noise_stack, noise_stack[1:3]])  # duplicates
        first, inverse = _unique_layers(stack)
        assert len(first) == noise_stack.shape[0]
        assert np.array_equal(stack[first][inverse], stack)


class TestPlaneSegments:
    """_plane_segments == Plane.intersect_triangle over each triangle."""

    @staticmethod
    def _reference(tris, z):
        plane = Plane.horizontal(z)
        segments = []
        for tri in tris:
            hit = plane.intersect_triangle(tri)
            if hit is not None:
                segments.append((hit[0][:2], hit[1][:2]))
        return segments

    def _assert_identical(self, tris, z):
        fast = _plane_segments(np.asarray(tris, dtype=float), z)
        slow = self._reference(np.asarray(tris, dtype=float), z)
        assert len(fast) == len(slow)
        for (fa, fb), (sa, sb) in zip(fast, slow):
            assert np.array_equal(fa, sa)
            assert np.array_equal(fb, sb)

    def test_unit_cube_generic_plane(self, unit_cube):
        self._assert_identical(unit_cube.triangles, 0.2)

    def test_plane_through_cube_face(self, unit_cube):
        """Coplanar faces drop; side triangles keep their on-plane edge."""
        self._assert_identical(unit_cube.triangles, float(unit_cube.bounds.lo[2]))
        self._assert_identical(unit_cube.triangles, float(unit_cube.bounds.hi[2]))

    def test_plane_through_tetra_vertices(self, tetra):
        """Single-vertex touches yield no segment on either path."""
        self._assert_identical(tetra.triangles, 0.0)
        self._assert_identical(tetra.triangles, 1.0)

    def test_plane_misses_mesh(self, tetra):
        assert _plane_segments(tetra.triangles, 5.0).shape == (0, 2, 2)
        assert _plane_segments(np.empty((0, 3, 3)), 0.0).shape == (0, 2, 2)

    def test_tensile_bar_export(self, split_bar):
        from repro.cad import COARSE

        mesh = split_bar.export_stl(COARSE).mesh
        zmin, zmax = mesh.bounds.lo[2], mesh.bounds.hi[2]
        for z in np.linspace(float(zmin), float(zmax), 7):
            tris = mesh.triangles
            mask = (tris[:, :, 2].min(axis=1) <= z) & (tris[:, :, 2].max(axis=1) >= z)
            self._assert_identical(tris[mask], float(z))
