"""The column-wise :class:`ToolpathStack` and its batched generator.

``generate_toolpaths_reference`` / ``raster_infill_reference`` are the
per-layer, per-span loop that the one-pass :func:`generate_toolpaths`
replaced, kept unchanged as the oracle: both must emit the same paths
in the same order, with the same roles, materials, closure and point
bits.
"""

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import COARSE, FINE, custom_resolution
from repro.geometry.polygon import Polygon2
from repro.pipeline.payload import extract_arrays
from repro.printer import PrintOrientation
from repro.slicer.gcode import generate_gcode
from repro.slicer.raster import scanline_spans_batch
from repro.slicer.settings import SlicerSettings
from repro.slicer.slicer import Layer, SliceResult, slice_mesh
from repro.slicer.toolpath import (
    Path,
    PathRole,
    ToolMaterial,
    ToolpathLayer,
    ToolpathStack,
    _rotate_by_layer,
    _rotation,
    _scanline_heights,
    generate_toolpaths,
    pack_toolpaths,
    unpack_toolpaths,
)

from conftest import placed_mesh


def raster_infill_reference(
    layer: Layer, settings: SlicerSettings, angle_deg: float = 0.0
) -> List[Path]:
    """The per-layer, per-span infill loop (the oracle)."""
    if not layer.contours or settings.interior not in ("solid", "sparse"):
        return []
    spacing = settings.bead_width_mm
    if settings.interior == "sparse":
        spacing *= 4.0
    rot = _rotation(-angle_deg)
    unrot = _rotation(angle_deg)
    contours = [Polygon2(c.points @ rot.T) for c in layer.contours]

    los = np.array([c.bounds.lo for c in contours])
    his = np.array([c.bounds.hi for c in contours])
    y0, y1 = float(los[:, 1].min()), float(his[:, 1].max())
    margin = settings.bead_width_mm / 2.0
    ys: List[float] = []
    y = y0 + margin
    while y <= y1 - margin + 1e-12:
        ys.append(y)
        y += spacing
    paths: List[Path] = []
    for i, spans in enumerate(scanline_spans_batch(contours, ys)):
        flip = bool(i % 2)
        for x_in, x_out in spans:
            a, b = x_in + margin, x_out - margin
            if b - a < settings.bead_width_mm / 4.0:
                continue
            pts = (
                np.array([[a, ys[i]], [b, ys[i]]])
                if not flip
                else np.array([[b, ys[i]], [a, ys[i]]])
            )
            paths.append(Path(points=pts @ unrot.T, role=PathRole.INFILL))
    return paths


def generate_toolpaths_reference(
    slices: SliceResult,
    settings: Optional[SlicerSettings] = None,
    support_layers: Optional[List[List[Path]]] = None,
    raster_angles_deg: Sequence[float] = (0.0, 90.0),
) -> List[ToolpathLayer]:
    """The per-layer generator loop (the oracle)."""
    settings = settings or slices.settings
    if not raster_angles_deg:
        raise ValueError("need at least one raster angle")
    layers: List[ToolpathLayer] = []
    for li, layer in enumerate(slices.layers):
        paths: List[Path] = []
        for _ in range(max(settings.n_perimeters, 0)):
            for contour in layer.contours:
                paths.append(
                    Path(points=contour.points.copy(), role=PathRole.PERIMETER, closed=True)
                )
        angle = float(raster_angles_deg[li % len(raster_angles_deg)])
        paths.extend(raster_infill_reference(layer, settings, angle_deg=angle))
        if support_layers is not None and li < len(support_layers):
            paths.extend(support_layers[li])
        layers.append(ToolpathLayer(z=layer.z, paths=paths))
    return layers


def assert_same_paths(stack: ToolpathStack, layers: List[ToolpathLayer]) -> None:
    """Layer for layer and path for path, bit-identical."""
    assert isinstance(stack, ToolpathStack)
    assert len(stack) == len(layers)
    for got, want in zip(stack, layers):
        assert got.z == want.z
        assert len(got.paths) == len(want.paths)
        for g, w in zip(got.paths, want.paths):
            assert g.role is w.role
            assert g.material is w.material
            assert g.closed == w.closed
            assert g.points.dtype == w.points.dtype
            assert g.points.tobytes() == w.points.tobytes()


def check(slices, **kwargs) -> ToolpathStack:
    stack = generate_toolpaths(slices, **kwargs)
    assert_same_paths(stack, generate_toolpaths_reference(slices, **kwargs))
    return stack


def rect(x0, y0, w, h, ccw=True):
    pts = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]], dtype=float)
    return Polygon2(pts if ccw else pts[::-1])


def slices_of(layer_contours, settings=None) -> SliceResult:
    return SliceResult(
        layers=[
            Layer(z=0.2 * (i + 1), contours=list(contours))
            for i, contours in enumerate(layer_contours)
        ],
        settings=settings or SlicerSettings(),
    )


#: Coordinates on the scanline lattice of the default 0.5 mm bead, so
#: vertices land on scanlines and edges run horizontal; plus free ones.
lattice = st.integers(-12, 12).map(lambda k: k * 0.25)
coord = st.one_of(lattice, st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def polygons(draw):
    if draw(st.booleans()):
        x, y = draw(lattice), draw(lattice)
        w, h = draw(st.integers(1, 16)) * 0.25, draw(st.integers(1, 16)) * 0.25
        return rect(x, y, w, h, ccw=draw(st.booleans()))
    # A star-shaped ring around a centre: simple, any vertex count.
    n = draw(st.integers(3, 9))
    angles = np.sort(draw(st.lists(
        st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=n, max_size=n, unique=True
    )))
    radii = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
    cx, cy = draw(coord), draw(coord)
    pts = np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])
    try:
        return Polygon2(pts)
    except ValueError:
        return rect(cx, cy, 1.0, 1.0)


support_path = Path(
    points=np.array([[0.0, -2.0], [1.0, -2.0], [1.0, -3.0]]),
    role=PathRole.SUPPORT,
    material=ToolMaterial.SUPPORT,
)


class TestBatchedMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(polygons(), max_size=3), max_size=5),
        st.sampled_from(["solid", "sparse"]),
        st.integers(0, 2),
        st.sampled_from([(0.0, 90.0), (45.0, -45.0), (30.0,), (0.0,), (90.0, 0.0, 17.5)]),
        st.booleans(),
    )
    def test_random_layers(self, layers, interior, n_perimeters, angles, with_support):
        settings = SlicerSettings(interior=interior, n_perimeters=n_perimeters)
        slices = slices_of(layers, settings)
        support = [[support_path] * (i % 3) for i in range(len(layers) + 1)]
        check(
            slices,
            support_layers=support if with_support else None,
            raster_angles_deg=angles,
        )

    def test_vertices_on_scanlines(self):
        # Scanlines start half a bead above y0 and step one bead: the
        # diamond's side vertices sit exactly on one.
        diamond = Polygon2(np.array([[0.0, 0.0], [2.0, 1.25], [0.0, 2.5], [-2.0, 1.25]]))
        stack = check(slices_of([[diamond], [diamond]]), raster_angles_deg=(0.0,))
        assert any(p.role is PathRole.INFILL for p in stack[0].paths)

    def test_rotation_drops_a_closing_vertex(self):
        # A closing edge just over EPS long: rotated by -30 degrees it
        # falls under EPS, and Polygon2 drops the last vertex.
        ring = np.array([[100.0, 50.0], [102.0, 50.0], [102.0, 52.0],
                         [100.0, 50.0 + 1.0000039972338082e-09]])
        contour = Polygon2(ring)
        assert len(Polygon2(contour.points @ _rotation(-30.0).T)) == 3
        check(slices_of([[contour]]), raster_angles_deg=(30.0,))
        triangle = Polygon2(ring[[0, 1, 3]])
        for generate in (generate_toolpaths, generate_toolpaths_reference):
            with pytest.raises(ValueError, match="degenerate polygon"):
                generate(slices_of([[triangle]]), raster_angles_deg=(30.0,))

    def test_empty_layers(self):
        stack = check(slices_of([[], [rect(0, 0, 4, 4)], [], []]))
        assert stack.n_paths.tolist()[0] == 0 and stack[0].paths == []
        check(slices_of([[], []]))
        check(slices_of([]))

    def test_no_perimeters(self):
        stack = check(slices_of([[rect(0, 0, 4, 4)]], SlicerSettings(n_perimeters=0)))
        assert PathRole.PERIMETER.value not in {p.role.value for p in stack[0].paths}

    def test_sparse_interior(self):
        check(slices_of([[rect(0, 0, 6, 6), rect(2, 2, 1, 1, ccw=False)]],
                        SlicerSettings(interior="sparse")))

    def test_diagonal_angles_with_hole(self):
        layer = [rect(0, 0, 6, 4), rect(2, 1, 1, 1, ccw=False)]
        check(slices_of([layer] * 4), raster_angles_deg=(45.0, -45.0))

    def test_support_layers_in_order(self):
        other = Path(points=np.array([[5.0, 5.0], [6.0, 5.0]]), role=PathRole.SUPPORT,
                     material=ToolMaterial.SUPPORT, closed=True)
        slices = slices_of([[rect(0, 0, 2, 2)], [rect(0, 0, 2, 2)], []])
        # Longer than the slice list: the extra entry is ignored.
        stack = check(slices, support_layers=[[support_path, other], [], [other], [other]])
        assert [p.role for p in stack[0].paths][-2:] == [PathRole.SUPPORT] * 2
        # Shorter than the slice list.
        check(slices, support_layers=[[other]])

    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError):
            generate_toolpaths(slices_of([[rect(0, 0, 1, 1)]]), raster_angles_deg=())


@pytest.mark.parametrize("orientation", [PrintOrientation.XY, PrintOrientation.XZ],
                         ids=lambda o: o.value)
@pytest.mark.parametrize(
    "resolution", [COARSE, FINE, custom_resolution()], ids=lambda r: r.name
)
def test_real_bar_matches_loop(randomized_bar_201, resolution, orientation):
    """The seed-201 randomized bar's slices through both generators."""
    from repro.pipeline.chain import ProcessChain

    settings = ProcessChain().settings
    slices = slice_mesh(placed_mesh(randomized_bar_201, resolution, orientation), settings)
    check(slices, settings=settings)
    check(slices, settings=settings, raster_angles_deg=(45.0, -45.0))


class TestPinnedArithmetic:
    """The batched steps reproduce the loop's unrounded values."""

    @pytest.mark.parametrize("angle", [0.0, 90.0, 45.0, -45.0, 30.0, 17.5, -90.0])
    def test_batched_rotation_equals_per_path(self, angle):
        rng = np.random.default_rng(27)
        ends = np.concatenate([
            rng.uniform(-300.0, 300.0, (4000, 2)),
            rng.normal(0.0, 1e-3, (1000, 2)),
            np.round(rng.uniform(-50.0, 50.0, (1000, 2)), 4),
        ])
        got = _rotate_by_layer(ends, np.zeros(len(ends), dtype=np.intp), (angle,), 1.0)
        unrot = _rotation(angle)
        want = np.concatenate([ends[i:i + 2] @ unrot.T for i in range(0, len(ends), 2)])
        assert got.tobytes() == want.tobytes()
        back = _rotate_by_layer(ends, np.zeros(len(ends), dtype=np.intp), (angle,), -1.0)
        rot = _rotation(-angle)
        # Contour rings: three to nine points each (never one row).
        cuts = np.cumsum(rng.integers(3, 10, 1000))
        cuts = cuts[cuts <= len(ends) - 3]
        rings = [ring @ rot.T for ring in np.split(ends, cuts)]
        assert back.tobytes() == np.concatenate(rings).tobytes()

    @given(st.floats(-200.0, 200.0), st.floats(0.0, 60.0), st.sampled_from([0.5, 2.0, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_scanline_heights_are_repeated_addition(self, y0, extent, spacing):
        margin = 0.25
        y1 = y0 + extent
        want: List[float] = []
        y = y0 + margin
        while y <= y1 - margin + 1e-12:
            want.append(y)
            y += spacing
        got = _scanline_heights(y0, y1, margin, spacing)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


class TestStackSequence:
    @pytest.fixture(scope="class")
    def stack(self):
        return generate_toolpaths(
            slices_of([[rect(0, 0, 3, 3)], [], [rect(0, 0, 2, 5), rect(3, 0, 1, 1)]]),
            support_layers=[[], [support_path]],
        )

    def test_indexing_and_iteration_agree(self, stack):
        layers = list(stack)
        assert len(layers) == len(stack) == 3
        for i, layer in enumerate(layers):
            for a, b in zip(stack[i].paths, layer.paths):
                assert a.points.tobytes() == b.points.tobytes()
        assert stack[-1].z == layers[2].z
        assert [l.z for l in stack[1:]] == [layers[1].z, layers[2].z]
        with pytest.raises(IndexError):
            stack[3]

    def test_columns_are_read_only(self, stack):
        for column in pack_toolpaths(stack).values():
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            stack[0].paths[0].points[0, 0] = 1.0

    def test_views_share_the_points_column(self, stack):
        assert np.shares_memory(stack[2].paths[0].points, stack.points)

    def test_from_layers_round_trip(self, stack):
        again = ToolpathStack.from_layers(list(stack))
        for name, column in pack_toolpaths(stack).items():
            assert getattr(again, name).tobytes() == column.tobytes(), name
        assert ToolpathStack.from_layers(stack) is stack
        assert generate_gcode(list(stack)).text == generate_gcode(stack).text

    def test_codec_round_trip(self, stack):
        back = unpack_toolpaths(pack_toolpaths(stack))
        assert_same_paths(back, list(stack))

    def test_real_stack_columns_become_segments(self, randomized_bar_201):
        """The points and point counts qualify for the disk cache's
        .npy segments; the small columns stay in the pickled header."""
        settings = SlicerSettings()
        slices = slice_mesh(placed_mesh(randomized_bar_201, COARSE, PrintOrientation.XY),
                            settings)
        stack = generate_toolpaths(slices, settings)
        _, arrays = extract_arrays(pack_toolpaths(stack))
        assert any(a is stack.points for a in arrays)
        assert any(a is stack.n_points for a in arrays)
