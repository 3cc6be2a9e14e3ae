"""G-code generation and parsing.

The generated dialect is the common FDM subset: ``G21`` (mm), ``G90``
(absolute), ``G0`` travels, ``G1`` extruding moves with an ``E`` axis,
and ``T0``/``T1`` tool selection for model/support material.  The parser
reads the same subset back; it is also what the firmware simulator and
the tool-path reverse-engineering verification (paper ref. [20]) run on.

Besides the text, :func:`generate_gcode` now emits a structured
:class:`MoveTable` (ISSUE 7): columnar NumPy arrays carrying exactly the
values the emitted text encodes (every coordinate is round-tripped
through its ``%.4f``/``%.5f``/``%.0f`` format before entering the
table), so ``table.to_moves() == parse_gcode(text)`` holds bit-for-bit
and downstream consumers (the firmware simulator) can run vectorized
over the table instead of re-parsing the text they just generated.  The
text stays the leaf artifact of record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.slicer.toolpath import (
    TOOL_MATERIALS,
    ToolMaterial,
    ToolpathLayer,
    ToolpathStack,
)

#: Extruded filament cross-section factor: E advance per mm of travel.
_E_PER_MM = 0.033


@dataclass
class GCodeMove:
    """One parsed motion command."""

    command: str  # "G0" or "G1"
    x: Optional[float] = None
    y: Optional[float] = None
    z: Optional[float] = None
    e: Optional[float] = None
    feedrate: Optional[float] = None
    tool: int = 0

    @property
    def is_extruding(self) -> bool:
        return self.command == "G1" and self.e is not None


@dataclass
class MoveTable:
    """Columnar (structure-of-arrays) form of a parsed move list.

    ``command`` is 0 for ``G0`` and 1 for ``G1``; unset float words are
    ``NaN`` (the text form simply omits them).  The table is the
    firmware simulator's vectorized input; :meth:`to_moves` restores
    the exact :class:`GCodeMove` list :func:`parse_gcode` would produce
    from the corresponding text, which is the bit-identity contract
    tests assert.
    """

    command: np.ndarray  # uint8: 0 = G0, 1 = G1
    x: np.ndarray  # float64, NaN = word absent
    y: np.ndarray
    z: np.ndarray
    e: np.ndarray
    feedrate: np.ndarray
    tool: np.ndarray  # int8

    def __len__(self) -> int:
        return int(self.command.shape[0])

    @classmethod
    def from_moves(cls, moves: List["GCodeMove"]) -> "MoveTable":
        n = len(moves)
        nan = math.nan
        return cls(
            command=np.fromiter(
                (0 if m.command == "G0" else 1 for m in moves),
                dtype=np.uint8, count=n,
            ),
            x=np.fromiter(
                (nan if m.x is None else m.x for m in moves),
                dtype=np.float64, count=n,
            ),
            y=np.fromiter(
                (nan if m.y is None else m.y for m in moves),
                dtype=np.float64, count=n,
            ),
            z=np.fromiter(
                (nan if m.z is None else m.z for m in moves),
                dtype=np.float64, count=n,
            ),
            e=np.fromiter(
                (nan if m.e is None else m.e for m in moves),
                dtype=np.float64, count=n,
            ),
            feedrate=np.fromiter(
                (nan if m.feedrate is None else m.feedrate for m in moves),
                dtype=np.float64, count=n,
            ),
            tool=np.fromiter((m.tool for m in moves), dtype=np.int8, count=n),
        )

    def to_moves(self) -> List["GCodeMove"]:
        """The row form; ``NaN`` columns become ``None`` words."""

        def opt(v: float) -> Optional[float]:
            return None if math.isnan(v) else float(v)

        return [
            GCodeMove(
                command="G0" if self.command[i] == 0 else "G1",
                x=opt(self.x[i]),
                y=opt(self.y[i]),
                z=opt(self.z[i]),
                e=opt(self.e[i]),
                feedrate=opt(self.feedrate[i]),
                tool=int(self.tool[i]),
            )
            for i in range(len(self))
        ]

    def to_columns(self) -> dict:
        """Plain dict-of-arrays form (the cache codec's packed tree)."""
        return {
            "command": self.command,
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "e": self.e,
            "feedrate": self.feedrate,
            "tool": self.tool,
        }

    @classmethod
    def from_columns(cls, columns: dict) -> "MoveTable":
        return cls(**{k: np.asarray(v) for k, v in columns.items()})


@dataclass
class GCodeProgram:
    """A G-code file: raw text plus the parsed move list.

    ``moves`` (when present) is the structured table emitted alongside
    the text; consumers must treat it as an exact mirror of the text -
    :func:`generate_gcode` guarantees it, and the cache codec restores
    it on hits.  A ``None`` table means "parse the text" (programs built
    by hand or loaded from legacy cache entries).
    """

    lines: List[str] = field(default_factory=list)
    moves: Optional[MoveTable] = None

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode())


#: Line kinds of the program body, in the order :func:`generate_gcode`
#: lays them out: a layer header (comment + ``G0 Z`` line), a tool
#: switch to T0 or T1, a path's ``G0`` travel to its first point, and
#: one ``G1`` extruding move.
_LAYER, _T0, _T1, _TRAVEL, _EXTRUDE = range(5)
#: Each kind's number words, formatted as its text line prints them
#: (the layer header prints z twice).
_WORD_FORMATS = np.array(
    ["%.4f %.4f", "", "", "%.4f %.4f", "%.4f %.4f %.5f"], dtype=object
)
_N_WORDS = np.array([f.count("%") for f in _WORD_FORMATS])


def _running_e(d: np.ndarray) -> np.ndarray:
    """The ``E`` word after each move of displacement ``d`` (``(m, 2)``).

    Bit-identical to the scalar ``e += float(np.linalg.norm(step)) *
    _E_PER_MM``: NumPy's ``norm`` of a real 1-D vector is
    ``sqrt(x.dot(x))``, the batched ``d[:, None, :] @ d[:, :, None]``
    runs the same dot kernel per row, and ``np.add.accumulate`` sums in
    order.  ``hypot``, ``einsum`` and ``sqrt(dx*dx + dy*dy)`` round
    differently in the last bit for some steps.
    """
    step = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return np.add.accumulate(step * _E_PER_MM)


def generate_gcode(
    layers: Union[ToolpathStack, Iterable[ToolpathLayer]],
    travel_feedrate: float = 6000.0,
    print_feedrate: float = 2400.0,
) -> GCodeProgram:
    """Emit G-code for a :class:`ToolpathStack` (or a list of layers).

    Each path is a ``G0`` travel to its first point followed by one
    ``G1`` per remaining point (a closed path adds a move back to its
    first point); ``E`` is the running extruded length times
    ``_E_PER_MM``.  The program is built column-first from the stack's
    columns (a hand-built layer list goes through
    :meth:`ToolpathStack.from_layers` first): all moves, step lengths
    and ``E`` values come from index arithmetic over the stacked points,
    every number word is formatted by one ``%``-template, and the
    :class:`MoveTable` parses those same words back with ``float`` - so
    ``table.to_moves() == parse_gcode(text)`` holds bit-for-bit.

    The tests keep the per-move loop this replaced as the oracle.
    """
    travel = f"{travel_feedrate:.0f}"
    feed = f"{print_feedrate:.0f}"
    stack = ToolpathStack.from_layers(layers)
    n_paths = stack.n_paths
    tool = (stack.material != TOOL_MATERIALS.index(ToolMaterial.MODEL)).astype(np.int8)
    n_pts = stack.n_points
    pts = stack.points

    # G1 moves: path i visits points 1..k-1 and, when closed, 0 again;
    # move t of the path goes from local point t to (t + 1) % k.
    n_moves = n_pts - 1 + stack.closed.astype(np.intp)
    move_path = np.repeat(np.arange(len(n_pts)), n_moves)
    pt_start = np.cumsum(n_pts) - n_pts
    local = np.arange(len(move_path)) - (np.cumsum(n_moves) - n_moves)[move_path]
    target = pt_start[move_path] + (local + 1) % n_pts[move_path]
    e = _running_e(pts[target] - pts[pt_start[move_path] + local])

    # Body layout: each layer header, then per path an optional tool
    # switch, its G0 and its G1s.
    tool_before = np.concatenate(([0], tool)).astype(np.int8)
    switch = tool != tool_before[:-1]
    path_items = switch + 1 + n_moves
    path_layer = np.repeat(np.arange(len(n_paths)), n_paths)
    items_before = np.concatenate(([0], np.cumsum(path_items)))
    first_path = np.cumsum(n_paths) - n_paths
    layer_pos = np.arange(len(n_paths)) + items_before[first_path]
    path_pos = items_before[:-1] + path_layer + 1
    kinds = np.full(len(n_paths) + int(path_items.sum()), _EXTRUDE, dtype=np.int8)
    kinds[layer_pos] = _LAYER
    kinds[path_pos[switch]] = _T0 + tool[switch]
    travel_pos = path_pos + switch
    kinds[travel_pos] = _TRAVEL
    extrude_pos = np.flatnonzero(kinds == _EXTRUDE)
    rows = np.flatnonzero((kinds != _T0) & (kinds != _T1))

    # Every number word in body order, then one format pass over them.
    n_words = _N_WORDS[kinds]
    word_pos = np.cumsum(n_words) - n_words
    words = np.empty(int(n_words.sum()))
    layer_z = stack.z
    words[word_pos[layer_pos]] = layer_z
    words[word_pos[layer_pos] + 1] = layer_z
    words[word_pos[travel_pos]] = pts[pt_start, 0]
    words[word_pos[travel_pos] + 1] = pts[pt_start, 1]
    words[word_pos[extrude_pos]] = pts[target, 0]
    words[word_pos[extrude_pos] + 1] = pts[target, 1]
    words[word_pos[extrude_pos] + 2] = e
    word_format = " ".join(_WORD_FORMATS[kinds[rows]].tolist())
    numbers = (word_format % tuple(words.tolist())).split()
    templates = np.array(
        [
            f"; layer z=%s\nG0 Z%s F{travel}",
            "T0",
            "T1",
            f"G0 X%s Y%s F{travel}",
            f"G1 X%s Y%s E%s F{feed}",
        ],
        dtype=object,
    )
    program = [
        "; repro ObfusCADe G-code",
        "G21 ; millimetres",
        "G90 ; absolute positioning",
        "M82 ; absolute extrusion",
        "T0",
        *templates[kinds].tolist(),
        "M104 S0 ; cool down",
        "M140 S0",
    ]
    lines = ("\n".join(program) % tuple(numbers)).split("\n")

    # The table: one row per G0/G1 line, values parsed from the words.
    parsed = np.fromiter(map(float, numbers), dtype=np.float64, count=len(words))
    item_tool = np.zeros(len(kinds), dtype=np.int8)
    item_tool[kinds != _LAYER] = np.repeat(tool, path_items)
    item_tool[layer_pos] = tool_before[first_path]
    kind, at = kinds[rows], word_pos[rows]
    xy, extruding = kind != _LAYER, kind == _EXTRUDE
    x = np.full(len(rows), math.nan)
    y = np.full(len(rows), math.nan)
    z = np.full(len(rows), math.nan)
    e_word = np.full(len(rows), math.nan)
    x[xy] = parsed[at[xy]]
    y[xy] = parsed[at[xy] + 1]
    z[~xy] = parsed[at[~xy]]
    e_word[extruding] = parsed[at[extruding] + 2]
    table = MoveTable(
        command=extruding.astype(np.uint8),
        x=x,
        y=y,
        z=z,
        e=e_word,
        feedrate=np.where(extruding, float(feed), float(travel)),
        tool=item_tool[rows],
    )
    return GCodeProgram(lines=lines, moves=table)


def pack_gcode(program: GCodeProgram) -> dict:
    """Cache codec: a primitive tree whose move-table columns qualify
    for the disk cache's ``.npy`` segment layout (mmap-able on warm
    reads), with the text lines in the pickled header."""
    return {
        "lines": list(program.lines),
        "columns": (
            None if program.moves is None else program.moves.to_columns()
        ),
    }


def unpack_gcode(packed: dict) -> GCodeProgram:
    columns = packed["columns"]
    return GCodeProgram(
        lines=list(packed["lines"]),
        moves=None if columns is None else MoveTable.from_columns(columns),
    )


def parse_gcode(program) -> List[GCodeMove]:
    """Parse a :class:`GCodeProgram` (or raw text) into moves.

    Unknown commands are skipped; comments (``;``) are stripped.  Raises
    ``ValueError`` on malformed coordinate words, because silently
    mis-parsing a tool path is exactly the failure mode a G-code
    validation stage exists to catch.
    """
    text = program.text if isinstance(program, GCodeProgram) else str(program)
    moves: List[GCodeMove] = []
    tool = 0
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].upper()
        if head.startswith("T") and head[1:].isdigit():
            tool = int(head[1:])
            continue
        if head not in ("G0", "G1"):
            continue
        move = GCodeMove(command=head, tool=tool)
        for word in parts[1:]:
            letter = word[0].upper()
            try:
                value = float(word[1:])
            except ValueError as exc:
                raise ValueError(f"malformed G-code word {word!r} in line {raw!r}") from exc
            if letter == "X":
                move.x = value
            elif letter == "Y":
                move.y = value
            elif letter == "Z":
                move.z = value
            elif letter == "E":
                move.e = value
            elif letter == "F":
                move.feedrate = value
        moves.append(move)
    return moves


def toolpath_statistics(moves: List[GCodeMove]) -> dict:
    """Aggregate statistics of a parsed program (for Fig. 3's stage view)."""
    x = y = z = None
    e_prev = 0.0
    travel = 0.0
    extrude = 0.0
    layers = set()
    for m in moves:
        nx = m.x if m.x is not None else x
        ny = m.y if m.y is not None else y
        nz = m.z if m.z is not None else z
        if x is not None and nx is not None and ny is not None and y is not None:
            d = float(np.hypot(nx - x, ny - y))
            if m.is_extruding and m.e is not None and m.e > e_prev:
                extrude += d
            else:
                travel += d
        if m.e is not None:
            e_prev = m.e
        if m.z is not None:
            layers.add(round(m.z, 4))
        x, y, z = nx, ny, nz
    return {
        "n_moves": len(moves),
        "n_layers": len(layers),
        "travel_mm": travel,
        "extrude_mm": extrude,
        "filament_e": e_prev,
    }
