"""Batched even-odd rasterization: the sparse scanline kernel.

The scalar rasterizer (`region_spans` in :mod:`repro.slicer.toolpath`,
the per-scanline loop it drove in :mod:`repro.slicer.preview`) walked
every scanline in Python, recomputing each contour's edge crossings one
``y`` at a time.  Profiling the counterfeiter grid search showed that
loop *was* the deposit hot path: ~75% of a chain run was spent producing
crossings scanline-by-scanline.

This module finds every contour-edge x scanline crossing in one pass
and paints the even-odd parity spans straight into row-packed bytes
(whole bytes from a byte-level difference array, head and tail bytes by
bit mask), so a whole layer *stack* rasterizes in a handful of array
operations.  The crossings are sparse: each edge takes its run of
scanlines by ``searchsorted`` over the ascending heights
(:func:`scanline_ranges`) and only those crossings are expanded
(:func:`crossings_in_ranges`), so the work grows with the number of
crossings, not with scanlines x edges.  The deposit raster
(:func:`rasterize_stack`) and the tool-path infill
(:func:`repro.slicer.toolpath.generate_toolpaths`, one call over every
layer's own scanlines) share that kernel and the even-odd pairing.  It
is bit-identical to the scalar path by construction:

* an edge crosses ``y`` iff exactly one endpoint has ``end_y > y``,
  i.e. iff ``min_y <= y < max_y`` - the same half-open rule, so a
  vertex lying exactly on a scanline counts once;
* crossings use the same per-edge expression
  ``px + (y - py) / (qy - py) * (qx - px)`` (IEEE ops are elementwise,
  so batching cannot change a single bit of any crossing);
* crossings are sorted per scanline and paired in even-odd order, and
  pairs no wider than the same ``1e-9`` epsilon are dropped;
* span endpoints map to cells with the same ``floor``/``ceil`` snapping
  and the same out-of-frame clipping, and overlapping spans union.

The scalar implementations are retained (`region_spans` stays the
public single-``y`` API); the tests keep them, the dense
(scanlines x edges) crossing matrix and the boolean difference-array
fill as reference oracles.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Spans narrower than this are degenerate (tangent vertices) and
#: dropped - the same epsilon the scalar ``region_spans`` uses.
SPAN_EPS = 1e-9


def contour_edges(contours) -> Tuple[np.ndarray, np.ndarray]:
    """All directed edges ``(p, q)`` of a contour set, concatenated.

    Returns two ``(n_edges, 2)`` arrays; closing edges (last vertex back
    to first) are included, matching the ``np.roll`` in the scalar path.
    """
    if not contours:
        empty = np.empty((0, 2), dtype=float)
        return empty, empty.copy()
    ps = [np.asarray(c.points, dtype=float) for c in contours]
    qs = [np.concatenate((p[1:], p[:1])) for p in ps]
    return np.vstack(ps), np.vstack(qs)


def scanline_ranges(
    p: np.ndarray, q: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each edge's half-open run ``[start, stop)`` of ascending ``ys``.

    Edge ``(p, q)`` crosses scanline ``y`` iff exactly one endpoint
    satisfies ``end_y > y``, i.e. iff ``min_y <= y < max_y``; over
    ascending ``ys`` those scanlines are the run between the left
    ``searchsorted`` positions of ``min_y`` and ``max_y``.
    """
    py, qy = p[:, 1], q[:, 1]
    start = np.searchsorted(ys, np.minimum(py, qy), side="left")
    stop = np.searchsorted(ys, np.maximum(py, qy), side="left")
    return start, stop


def crossings_in_ranges(
    p: np.ndarray,
    q: np.ndarray,
    ys: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-edge scanline runs into ``(rows, cols, xs)`` crossings.

    Edge ``j`` crosses rows ``start[j] .. stop[j] - 1`` of ``ys``; the
    crossings come out edge by edge, rows ascending within an edge, and
    each x is ``px + (y - py) / (qy - py) * (qx - px)``.  The work is
    proportional to the number of crossings.
    """
    count = stop - start
    cols = np.repeat(np.arange(p.shape[0]), count)
    first = np.cumsum(count) - count
    rows = np.arange(cols.size) + np.repeat(start - first, count)
    py, qy = p[cols, 1], q[cols, 1]
    px, qx = p[cols, 0], q[cols, 0]
    xs = px + (ys[rows] - py) / (qy - py) * (qx - px)
    return rows, cols, xs


def edge_crossings(
    p: np.ndarray, q: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (scanline, edge) crossing of edge set ``(p, q)``.

    Returns ``(rows, cols, xs)``: for each crossing, the scanline index
    into ``ys``, the edge index, and the crossing x.  An edge crosses
    scanline ``y`` iff exactly one endpoint satisfies ``end_y > y`` -
    the same half-open rule as the scalar path, which makes vertices
    lying exactly on a scanline count once, not twice.  Crossings are
    grouped by edge (callers pair them per row, which sorts them).
    ``ys`` need not be sorted: unsorted heights are searched in sorted
    order and the rows mapped back.
    """
    ys = np.asarray(ys, dtype=float)
    if p.shape[0] == 0 or ys.shape[0] == 0:
        z = np.empty(0, dtype=np.intp)
        return z, z.copy(), np.empty(0, dtype=float)
    order = None
    if not np.all(ys[1:] >= ys[:-1]):
        order = np.argsort(ys, kind="stable")
        ys = ys[order]
    rows, cols, xs = crossings_in_ranges(p, q, ys, *scanline_ranges(p, q, ys))
    if order is not None:
        rows = order[rows]
    return rows, cols, xs


def _pair_crossings(
    rows: np.ndarray, xs: np.ndarray, n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort crossings per row and pair them even-odd into spans.

    Returns ``(span_rows, x_in, x_out)`` with degenerate spans
    (``x_out - x_in <= SPAN_EPS``) removed.  A trailing unpaired
    crossing (odd count, a degenerate touch) is dropped, as in the
    scalar path.
    """
    if rows.size == 0:
        z = np.empty(0, dtype=np.intp)
        return z, np.empty(0, dtype=float), np.empty(0, dtype=float)
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    order = np.lexsort((xs, rows))
    xs_sorted = xs[order]
    rows_sorted = rows[order]
    position = np.arange(xs_sorted.size) - starts[rows_sorted]
    is_in = (position % 2 == 0) & (position + 1 < counts[rows_sorted])
    in_idx = np.nonzero(is_in)[0]
    x_in = xs_sorted[in_idx]
    x_out = xs_sorted[in_idx + 1]
    keep = x_out - x_in > SPAN_EPS
    return rows_sorted[in_idx[keep]], x_in[keep], x_out[keep]


def _bit_range_masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Byte masks of bits ``[a, b)`` (``0 <= a < b <= 8``, MSB = bit 0)."""
    return ((0xFF >> a) & (0xFF << (8 - b)) & 0xFF).astype(np.uint8)


def fill_spans_packed(
    span_rows: np.ndarray,
    x_in: np.ndarray,
    x_out: np.ndarray,
    x0: float,
    nx: int,
    cell: float,
    n_rows: int,
) -> np.ndarray:
    """Paint x-spans onto a row-packed ``(n_rows, ceil(nx / 8))`` raster.

    A span fills cells ``floor((x_in - x0)/cell)`` up to (exclusive)
    ``ceil((x_out - x0)/cell)``, clipped to the frame - identical to the
    scalar fill.  Rows are packed MSB-first as ``np.packbits`` along x
    does, padding bits zero.  The whole bytes ``[ceil(lo/8), hi//8)``
    of a span come from a byte-level difference array (an eighth of a
    cell-level one); its partial head and tail bytes are ORed in with
    bit masks, unbuffered, so overlapping spans union.
    """
    nb = (nx + 7) // 8
    out = np.zeros((n_rows, nb), dtype=np.uint8)
    if span_rows.size == 0:
        return out
    i0 = np.floor((x_in - x0) / cell)
    i1 = np.ceil((x_out - x0) / cell)
    inside = (i1 > 0) & (i0 < nx)
    rows = span_rows[inside]
    lo = np.clip(i0[inside], 0, nx).astype(np.intp)
    hi = np.clip(i1[inside], 0, nx).astype(np.intp)
    nonempty = lo < hi
    if not nonempty.all():
        rows, lo, hi = rows[nonempty], lo[nonempty], hi[nonempty]
    if rows.size == 0:
        return out
    full_lo = (lo + 7) >> 3
    full_hi = hi >> 3
    whole = full_lo < full_hi
    if whole.any():
        delta = np.zeros((n_rows, nb + 1), dtype=np.int32)
        flat_delta = delta.reshape(-1)
        base = rows[whole] * (nb + 1)
        # Flat indices and an int32 operand keep ufunc.at on its fast
        # path; a scalar operand is about twenty times slower.
        unit = np.ones(base.size, dtype=np.int32)
        np.add.at(flat_delta, base + full_lo[whole], unit)
        np.subtract.at(flat_delta, base + full_hi[whole], unit)
        covered = np.cumsum(delta[:, :-1], axis=1, out=delta[:, :-1]) > 0
        np.negative(covered.view(np.uint8), out=out)  # True -> 0xFF
    flat = out.reshape(-1)
    # Head: the byte holding ``lo``, from ``lo`` to ``hi`` or its end.
    head = lo >> 3
    np.bitwise_or.at(
        flat,
        rows * nb + head,
        _bit_range_masks(lo & 7, np.minimum(hi - (head << 3), 8)),
    )
    # Tail: the byte holding ``hi`` when it is not the head byte.
    tail = (hi & 7 != 0) & (full_hi > head)
    np.bitwise_or.at(
        flat,
        rows[tail] * nb + full_hi[tail],
        _bit_range_masks(np.zeros_like(hi[tail]), hi[tail] & 7),
    )
    return out


def scanline_spans_batch(
    contours, ys: Sequence[float]
) -> List[List[Tuple[float, float]]]:
    """Even-odd interior x-spans of ``contours`` at every ``ys`` height.

    Batched equivalent of calling
    :func:`repro.slicer.toolpath.region_spans` once per ``y``; returns
    one span list per scanline, in ``ys`` order.
    """
    ys = np.asarray(ys, dtype=float)
    spans: List[List[Tuple[float, float]]] = [[] for _ in range(ys.size)]
    p, q = contour_edges(contours)
    rows, _, xs = edge_crossings(p, q, ys)
    span_rows, x_in, x_out = _pair_crossings(rows, xs, ys.size)
    for row, a, b in zip(span_rows.tolist(), x_in.tolist(), x_out.tolist()):
        spans[row].append((a, b))
    return spans


def rasterize_frame(
    contours, lo: np.ndarray, nx: int, ny: int, cell: float
) -> np.ndarray:
    """Even-odd rasterization of one contour set onto a ``(ny, nx)`` frame.

    The vectorized implementation behind
    :func:`repro.slicer.preview.rasterize_contours`: scanlines run
    through cell-row centres ``lo[1] + (iy + 0.5) * cell``.  It is the
    packed fill of a one-layer :func:`rasterize_stack`, unpacked to a
    boolean grid.
    """
    packed = rasterize_stack([contours], lo, nx, ny, cell)[0]
    return np.unpackbits(packed, axis=-1, count=nx).view(bool)


def rasterize_stack(
    layer_contours: Sequence, lo: np.ndarray, nx: int, ny: int, cell: float
) -> np.ndarray:
    """Rasterize a whole layer stack onto one row-packed frame.

    Returns ``(nz, ny, ceil(nx / 8))`` uint8: each ``(z, y)`` row packed
    along x as ``np.packbits`` packs it (x = 0 in the most significant
    bit, padding zero), the layout of
    :class:`~repro.printer.artifact.PrintedArtifact`'s grids.  All
    layers share the scanline grid, so every layer's edges are batched
    into a single crossing computation: edge j of layer iz crossing
    scanline iy lands in flat row ``iz * ny + iy``, and
    :func:`fill_spans_packed` paints the whole volume.
    """
    nz = len(layer_contours)
    nb = (nx + 7) // 8
    ys = lo[1] + (np.arange(ny, dtype=float) + 0.5) * cell

    # Per-layer edge arrays plus the owning layer of every edge.
    ps, qs, owners = [], [], []
    for iz, contours in enumerate(layer_contours):
        if not contours:
            continue
        p, q = contour_edges(contours)
        ps.append(p)
        qs.append(q)
        owners.append(np.full(p.shape[0], iz, dtype=np.intp))
    if not ps:
        return np.zeros((nz, ny, nb), dtype=np.uint8)

    rows, cols, xs = edge_crossings(np.vstack(ps), np.vstack(qs), ys)
    flat_rows = np.concatenate(owners)[cols] * ny + rows
    span_rows, x_in, x_out = _pair_crossings(flat_rows, xs, nz * ny)
    packed = fill_spans_packed(
        span_rows, x_in, x_out, float(lo[0]), nx, cell, nz * ny
    )
    return packed.reshape(nz, ny, nb)
