"""Property-based tests for the G-code pipeline and reverse engineering.

``_generate_gcode_loop`` is the per-move emitter that the column-first
:func:`generate_gcode` replaced, kept unchanged as the oracle: both must
produce the same lines and a bit-identical :class:`MoveTable`.
"""

import math
from typing import Iterable, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import COARSE, FINE, custom_resolution
from repro.printer import PrintOrientation
from repro.slicer.gcode import (
    _E_PER_MM,
    GCodeProgram,
    MoveTable,
    _running_e,
    generate_gcode,
    parse_gcode,
    toolpath_statistics,
)
from repro.slicer.reverse import reconstruct_layers
from repro.slicer.slicer import slice_mesh
from repro.slicer.toolpath import (
    Path,
    PathRole,
    ToolMaterial,
    ToolpathLayer,
    generate_toolpaths,
)

from conftest import placed_mesh


def _generate_gcode_loop(
    layers: Iterable[ToolpathLayer],
    travel_feedrate: float = 6000.0,
    print_feedrate: float = 2400.0,
) -> GCodeProgram:
    """The per-move loop :func:`generate_gcode` replaced (the oracle)."""
    lines = [
        "; repro ObfusCADe G-code",
        "G21 ; millimetres",
        "G90 ; absolute positioning",
        "M82 ; absolute extrusion",
        "T0",
    ]
    e = 0.0
    current_tool = 0
    nan = math.nan
    # Columnar mirror of the emitted moves.  Every value entering the
    # table is round-tripped through the *same format* the text uses,
    # so the table is bit-identical to re-parsing the text.
    cmd: List[int] = []
    col_x: List[float] = []
    col_y: List[float] = []
    col_z: List[float] = []
    col_e: List[float] = []
    col_f: List[float] = []
    col_t: List[int] = []
    travel_f = float(f"{travel_feedrate:.0f}")
    print_f = float(f"{print_feedrate:.0f}")

    def emit(command: int, x=nan, y=nan, z=nan, e_word=nan, feed=nan) -> None:
        cmd.append(command)
        col_x.append(x)
        col_y.append(y)
        col_z.append(z)
        col_e.append(e_word)
        col_f.append(feed)
        col_t.append(current_tool)

    for layer in layers:
        lines.append(f"; layer z={layer.z:.4f}")
        lines.append(f"G0 Z{layer.z:.4f} F{travel_feedrate:.0f}")
        emit(0, z=float(f"{layer.z:.4f}"), feed=travel_f)
        for path in layer.paths:
            tool = 0 if path.material is ToolMaterial.MODEL else 1
            if tool != current_tool:
                lines.append(f"T{tool}")
                current_tool = tool
            pts = path.points
            lines.append(f"G0 X{pts[0, 0]:.4f} Y{pts[0, 1]:.4f} F{travel_feedrate:.0f}")
            emit(
                0,
                x=float(f"{pts[0, 0]:.4f}"),
                y=float(f"{pts[0, 1]:.4f}"),
                feed=travel_f,
            )
            sequence = list(range(1, len(pts)))
            if path.closed:
                sequence.append(0)
            prev = pts[0]
            for idx in sequence:
                p = pts[idx]
                e += float(np.linalg.norm(p - prev)) * _E_PER_MM
                lines.append(
                    f"G1 X{p[0]:.4f} Y{p[1]:.4f} E{e:.5f} F{print_feedrate:.0f}"
                )
                emit(
                    1,
                    x=float(f"{p[0]:.4f}"),
                    y=float(f"{p[1]:.4f}"),
                    e_word=float(f"{e:.5f}"),
                    feed=print_f,
                )
                prev = p
    lines.append("M104 S0 ; cool down")
    lines.append("M140 S0")
    table = MoveTable(
        command=np.array(cmd, dtype=np.uint8),
        x=np.array(col_x, dtype=np.float64),
        y=np.array(col_y, dtype=np.float64),
        z=np.array(col_z, dtype=np.float64),
        e=np.array(col_e, dtype=np.float64),
        feedrate=np.array(col_f, dtype=np.float64),
        tool=np.array(col_t, dtype=np.int8),
    )
    return GCodeProgram(lines=lines, moves=table)



def assert_matches_oracle(layers) -> GCodeProgram:
    """Lines equal and every table column bit-equal (dtype, shape and
    NaN positions included) to the oracle's; the table mirrors the text."""
    program = generate_gcode(layers)
    oracle = _generate_gcode_loop(layers)
    assert program.lines == oracle.lines
    got, want = program.moves.to_columns(), oracle.moves.to_columns()
    assert list(got) == list(want)
    for name, column in want.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].shape == column.shape, name
        assert got[name].tobytes() == column.tobytes(), name
    assert program.moves.to_moves() == parse_gcode(program.text)
    return program

coord = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


@st.composite
def open_paths(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pts = []
    last = None
    for _ in range(n):
        p = (draw(coord), draw(coord))
        if last is not None and abs(p[0] - last[0]) + abs(p[1] - last[1]) < 1e-6:
            p = (p[0] + 1.0, p[1])
        pts.append(p)
        last = p
    return Path(points=np.array(pts), role=PathRole.INFILL)


@st.composite
def toolpath_layer_lists(draw):
    n_layers = draw(st.integers(min_value=1, max_value=4))
    layers = []
    for i in range(n_layers):
        n_paths = draw(st.integers(min_value=1, max_value=4))
        paths = [draw(open_paths()) for _ in range(n_paths)]
        layers.append(ToolpathLayer(z=0.2 * (i + 1), paths=paths))
    return layers


class TestGcodeRoundtrip:
    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_extrusion_length_survives_roundtrip(self, layers):
        """Path length in == extrusion length parsed back out."""
        program = generate_gcode(layers)
        stats = toolpath_statistics(parse_gcode(program))
        expected = sum(p.length for layer in layers for p in layer.paths)
        # G-code coordinates are rounded to 4 decimals; tolerance covers it.
        assert np.isclose(stats["extrude_mm"], expected, rtol=1e-3, atol=0.05)

    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_layer_count_survives(self, layers):
        program = generate_gcode(layers)
        stats = toolpath_statistics(parse_gcode(program))
        assert stats["n_layers"] == len({round(l.z, 4) for l in layers})

    @given(toolpath_layer_lists())
    @settings(max_examples=40, deadline=None)
    def test_e_axis_monotone(self, layers):
        moves = parse_gcode(generate_gcode(layers))
        es = [m.e for m in moves if m.e is not None]
        assert all(b >= a - 1e-9 for a, b in zip(es, es[1:]))

    @given(toolpath_layer_lists())
    @settings(max_examples=30, deadline=None)
    def test_reverse_engineering_recovers_path_length(self, layers):
        """The ref [20] reconstruction finds all printed geometry."""
        moves = parse_gcode(generate_gcode(layers))
        recon = reconstruct_layers(moves)
        total_in = sum(p.length for layer in layers for p in layer.paths)
        total_out = 0.0
        for layer in recon:
            total_out += layer.raster_length_mm
            for loop in layer.loops:
                total_out += loop.perimeter
        assert np.isclose(total_out, total_in, rtol=1e-3, atol=0.1)


#: Coordinates that stress the text formats: free floats, values next
#: to a ``%.4f``/``%.5f`` rounding tie, and small negatives that print
#: as ``-0.0000``.
tie = st.integers(min_value=-20000, max_value=20000).map(lambda k: k * 1e-4 + 5e-5)
near_tie = st.tuples(tie, st.sampled_from([-1e-12, 0.0, 1e-12])).map(sum)
negative_zero = st.sampled_from([-0.0, -1e-9, -4.9e-5, -5e-5, -5.1e-5, -1e-6])
wide_coord = st.one_of(
    st.floats(min_value=-600.0, max_value=600.0, allow_nan=False),
    near_tie,
    negative_zero,
    st.integers(min_value=-300, max_value=300).map(float),
)


@st.composite
def oracle_paths(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pts = [(draw(wide_coord), draw(wide_coord)) for _ in range(n)]
    # Zero-length steps: repeat a point in place.
    for i in draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=2)):
        pts[i] = pts[i - 1]
    material = draw(st.sampled_from(list(ToolMaterial)))
    return Path(
        points=np.array(pts),
        role=PathRole.SUPPORT if material is ToolMaterial.SUPPORT else PathRole.PERIMETER,
        material=material,
        closed=draw(st.booleans()),
    )


@st.composite
def oracle_layer_lists(draw):
    layers = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        z = draw(st.one_of(st.floats(min_value=-1.0, max_value=300.0), near_tie))
        paths = draw(st.lists(oracle_paths(), max_size=5))
        layers.append(ToolpathLayer(z=z, paths=paths))
    return layers


def _zigzag(n: int, width: float, y0: float = 0.0) -> Path:
    xs = np.where(np.arange(n) % 2 == 0, 0.0, width)
    return Path(points=np.column_stack([xs, y0 + 0.1 * np.arange(n)]), role=PathRole.INFILL)


class TestColumnFirstMatchesLoop:
    @given(oracle_layer_lists())
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, layers):
        assert_matches_oracle(layers)

    def test_empty_layer_list(self):
        program = assert_matches_oracle([])
        assert len(program.moves) == 0

    def test_layers_without_paths(self):
        layers = [ToolpathLayer(z=0.2), ToolpathLayer(z=0.4, paths=[_zigzag(3, 5.0)]),
                  ToolpathLayer(z=0.6)]
        program = assert_matches_oracle(layers)
        assert program.moves.command.tolist() == [0, 0, 0, 1, 1, 0]

    def test_support_first_and_switches_inside_layer(self):
        support = Path(
            points=np.array([[0.0, -2.0], [10.0, -2.0]]),
            role=PathRole.SUPPORT,
            material=ToolMaterial.SUPPORT,
        )
        square = Path(
            points=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]),
            role=PathRole.PERIMETER,
            closed=True,
        )
        layers = [
            ToolpathLayer(z=0.2, paths=[support, square, support, support, square]),
            ToolpathLayer(z=0.4),
            ToolpathLayer(z=0.6, paths=[square, support]),
        ]
        program = assert_matches_oracle(layers)
        switches = [line for line in program.lines if line in ("T0", "T1")]
        assert switches == ["T0", "T1", "T0", "T1", "T0", "T1"]
        # The empty layer's G0 Z runs on the tool left over from before.
        assert program.moves.tool[program.moves.z == 0.4].tolist() == [0]

    def test_rounding_ties_and_negative_zero(self):
        pts = np.array(
            [[-0.0, -1e-9], [0.00005, 1.00005], [-4.9e-5, 2.00015], [123.45675, -0.0]]
        )
        program = assert_matches_oracle(
            [ToolpathLayer(z=0.00005, paths=[Path(points=pts, role=PathRole.PERIMETER, closed=True)])]
        )
        assert any("-0.0000" in line for line in program.lines)

    def test_extrusion_passes_1e3(self):
        layers = [ToolpathLayer(z=0.2 * (i + 1), paths=[_zigzag(40, 250.0, y0=i)])
                  for i in range(4)]
        program = assert_matches_oracle(layers)
        assert np.nanmax(program.moves.e) > 1e3


def _running_e_loop(d: np.ndarray) -> np.ndarray:
    """The oracle's ``E`` accumulation, one scalar norm per move."""
    out, e = [], 0.0
    for step in d:
        e += float(np.linalg.norm(step)) * _E_PER_MM
        out.append(e)
    return np.array(out, dtype=np.float64)


class TestRunningE:
    """The unrounded ``E`` values, bit for bit: the text rounds E to five
    decimals, so a last-bit difference in one step length would almost
    never show in the program itself."""

    def test_random_moves(self):
        rng = np.random.default_rng(21)
        d = np.concatenate(
            [
                rng.uniform(-300.0, 300.0, (20000, 2)),
                rng.normal(0.0, 1e-3, (20000, 2)),
                np.round(rng.uniform(-50.0, 50.0, (10000, 2)), 4),
                np.zeros((3, 2)),
            ]
        )
        assert _running_e(d).tobytes() == _running_e_loop(d).tobytes()

    def test_empty(self):
        assert _running_e(np.empty((0, 2))).shape == (0,)

    @given(st.lists(st.tuples(wide_coord, wide_coord), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_drawn_moves(self, steps):
        d = np.array(steps, dtype=np.float64)
        assert _running_e(d).tobytes() == _running_e_loop(d).tobytes()


@pytest.mark.parametrize(
    "resolution", [COARSE, FINE, custom_resolution()], ids=lambda r: r.name
)
def test_real_bar_matches_loop(randomized_bar_201, resolution):
    """The seed-201 randomized bar's x-y tool paths through both emitters."""
    from repro.pipeline.chain import ProcessChain

    settings = ProcessChain().settings
    mesh = placed_mesh(randomized_bar_201, resolution, PrintOrientation.XY)
    layers = generate_toolpaths(slice_mesh(mesh, settings), settings)
    assert_matches_oracle(layers)
