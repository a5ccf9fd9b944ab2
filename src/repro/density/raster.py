"""Array passes of the §3.1 density analysis: window areas and fill regions.

The raster passes slice the die into window-column strips and
rasterize each strip once with :func:`repro.geometry.strip_occupancy`,
the one rasterizer.  :func:`covered_area_map` (and
:func:`raster_area_map`, the same map of a ``Rect`` sequence) is the
one covered-area map: the analysis's ``l(i, j)``, every wire and
total-metal density map, and each term of the score's overlay
(:func:`~repro.density.analysis.overlay_map`) run on it, so every
per-window union area of the package is one call.
:func:`raster_fill_regions` is the fill-region cutter
:func:`~repro.density.analysis.analyze_layer` runs unless the scanline
cutter is named: one run extraction per column strip, whose windows
get read-only int64 box arrays with the scanline cutter's rects, in
the same order.  :func:`clipped_area_map` is the one per-window
*sum* of clipped areas: the fill density the replanning round reads,
in memory and streamed alike.

Why this is exact and not an approximation: the raster grid is the
coordinate grid *induced by the shapes themselves* (plus the window cut
lines), so every shape is a union of whole cells and all sums are
int64.  Floats appear only in the final density divisions.

Why it is fast, and stays linear in memory: one pass per window-column
strip replaces thousands of per-window rect-set constructions and run
extractions, and a strip's grid is small where one global compressed
grid would be quadratic (10k fills would mean a 20k x 20k cell grid).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry import IntArray, Rect, boxes, strip_occupancy
from ..geometry.raster import OccupancyArray
from ..layout import DrcRules, Layer, WindowGrid

__all__ = [
    "window_cuts",
    "clipped_area_map",
    "covered_area_map",
    "raster_area_map",
    "raster_fill_regions",
    "NO_REGION",
]

_I64 = np.int64

#: the fill region of a window with no free space: a read-only ``(0, 4)`` box array
NO_REGION: IntArray = np.zeros((0, 4), dtype=_I64)
NO_REGION.flags.writeable = False

WindowKey = Tuple[int, int]


def window_cuts(grid: WindowGrid) -> Tuple[List[int], List[int]]:
    """The grid's window boundary coordinates per axis.

    Matches :meth:`WindowGrid.window` exactly: uniform cuts except the
    last column/row, which absorbs the division remainder.
    """
    die = grid.die
    xs = [die.xl + i * grid.window_width for i in range(grid.cols)] + [die.xh]
    ys = [die.yl + j * grid.window_height for j in range(grid.rows)] + [die.yh]
    return xs, ys


def _column_rows(
    grid: WindowGrid, windows: Optional[Sequence[WindowKey]]
) -> Dict[int, List[int]]:
    """The distinct requested rows of each window column, ascending."""
    if windows is None:
        return {i: list(range(grid.rows)) for i in range(grid.cols)}
    rows: Dict[int, Set[int]] = {}
    for i, j in windows:
        rows.setdefault(i, set()).add(j)
    return {i: sorted(js) for i, js in rows.items()}


def clipped_area_map(box: IntArray, grid: WindowGrid) -> np.ndarray:
    """Per window, the int64 sum of each rect's area clipped to it.

    ``box`` is an ``(n, 4)`` int64 box array.  A point covered by two
    rects counts twice: this is a sum, not the union
    :func:`raster_area_map` measures, and area outside the grid's die
    is not counted.  A rect meets a range of window columns and rows,
    found by ``searchsorted`` on the cut lines, and each (rect, window)
    pair adds the rect's clipped width times its clipped height.
    """
    x_cuts, y_cuts = (np.asarray(c, dtype=_I64) for c in window_cuts(grid))
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    i0 = np.maximum(np.searchsorted(x_cuts, box[:, 0], "right") - 1, 0)
    i1 = np.minimum(np.searchsorted(x_cuts, box[:, 2], "left"), grid.cols)
    j0 = np.maximum(np.searchsorted(y_cuts, box[:, 1], "right") - 1, 0)
    j1 = np.minimum(np.searchsorted(y_cuts, box[:, 3], "left"), grid.rows)
    span = np.maximum(j1 - j0, 0)
    count = np.maximum(i1 - i0, 0) * span
    rect = np.repeat(np.arange(len(box)), count)
    local = np.arange(len(rect)) - np.repeat(np.cumsum(count) - count, count)
    i = i0[rect] + local // span[rect]
    j = j0[rect] + local % span[rect]
    b = box[rect]
    width = np.minimum(b[:, 2], x_cuts[i + 1]) - np.maximum(b[:, 0], x_cuts[i])
    height = np.minimum(b[:, 3], y_cuts[j + 1]) - np.maximum(b[:, 1], y_cuts[j])
    np.add.at(out, (i, j), width * height)
    return out


def raster_area_map(
    shapes: Sequence[Rect],
    grid: WindowGrid,
    *,
    windows: Optional[Sequence[WindowKey]] = None,
) -> np.ndarray:
    """Per-window covered area of ``shapes`` inside the grid's die:
    :func:`covered_area_map` of their box array."""
    return covered_area_map(boxes(shapes, len(shapes)), grid, windows=windows)


def covered_area_map(
    box: IntArray,
    grid: WindowGrid,
    *,
    windows: Optional[Sequence[WindowKey]] = None,
) -> np.ndarray:
    """Per-window covered area of the rows of ``box`` inside the grid's die.

    Each point counts once however many rects cover it, so
    overlapping wires (and fills over wires) are not double counted.
    ``windows`` restricts the work to those window keys: each of their
    columns rasterizes only the rows from its lowest to its highest
    requested window, and every other window stays zero.

    Per window-column strip, the rects are rasterized with the strip's
    edges and window row cuts as cut lines.  Each y-cell's covered
    width is then the summed width of its covered x-cells, and a window
    row's area is the sum of width x height over its y-cells.  All sums
    are int64.
    """
    x_cuts, y_cuts = window_cuts(grid)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    if not len(box):
        return out
    cols = np.asarray(x_cuts, dtype=_I64)
    rows = np.asarray(y_cuts, dtype=_I64)
    for i, js in _column_rows(grid, windows).items():
        lo, hi = js[0], js[-1] + 1
        m = (
            (box[:, 0] < cols[i + 1])
            & (box[:, 2] > cols[i])
            & (box[:, 1] < rows[hi])
            & (box[:, 3] > rows[lo])
        )
        if not bool(m.any()):
            continue
        xs, ys, occupied = strip_occupancy(box[m], cols[i : i + 2], rows[lo : hi + 1])
        # einsum casts the int32 grid buffer by buffer; a matrix product
        # would first copy it whole to int64
        covered_width = np.einsum("i,ij->j", np.diff(xs), occupied)
        per_cell = covered_width * np.diff(ys)
        per_row = np.add.reduceat(per_cell, np.searchsorted(ys, rows[lo:hi]))
        out[i, js] = per_row[np.asarray(js) - lo]
    return out


def _window_runs(
    xs: IntArray, ys: IntArray, occupied: OccupancyArray, yl: IntArray, yh: IntArray
) -> Tuple[IntArray, IntArray]:
    """The free rects of every window of one column strip, and their windows.

    ``xs``/``ys``/``occupied`` are the strip's raster
    (:func:`~repro.geometry.strip_occupancy`); window ``w`` spans
    ``yl[w] <= y < yh[w]``, ascending, on the raster's cut lines.  Every
    maximal x-run of free cells of every y-cell is found in one
    transition pass, tagged with the window its y-cell lies in (runs in
    no window — a margin gap, or a row nobody asked for — are dropped),
    and runs of one window with the same x-cells in consecutive
    y-cells merge into one rect, so a window edge always breaks the
    merge.  Returns the ``(k, 4)`` rects, ordered by window, then
    ``(xl, yl, xh, yh)``, and the window of each.
    """
    low = ys[:-1]
    cell_window = np.searchsorted(yl, low, "right") - 1
    cell_window[(cell_window < 0) | (low >= yh[cell_window])] = -1
    # per y-cell the free/occupied transitions alternate run start, run end
    row, col = np.nonzero(np.diff(occupied.T == 0, axis=1, prepend=False, append=False))
    start, end, row = col[0::2], col[1::2], row[0::2]
    window = cell_window[row]
    keep = window >= 0
    start, end, row, window = start[keep], end[keep], row[keep], window[keep]
    order = np.lexsort((row, end, start, window))
    start, end, row, window = start[order], end[order], row[order], window[order]
    new = np.ones(len(row), dtype=bool)
    new[1:] = (
        (window[1:] != window[:-1])
        | (start[1:] != start[:-1])
        | (end[1:] != end[:-1])
        | (row[1:] != row[:-1] + 1)
    )
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(row)) - 1 if len(first) else first
    box: IntArray = np.column_stack(
        (xs[start[first]], ys[row[first]], xs[end[first]], ys[row[last] + 1])
    )
    window = window[first]
    order = np.lexsort((box[:, 3], box[:, 2], box[:, 1], box[:, 0], window))
    return box[order], window[order]


def raster_fill_regions(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    windows: Optional[Sequence[WindowKey]] = None,
) -> Dict[WindowKey, IntArray]:
    """Feasible fill region per window, cut from one raster per column.

    Obstacles are the layer's wire boxes bloated by the minimum
    spacing.  Per window-column strip the bloated set is rasterized
    once, with the inset windows' edges as cut lines, and every
    window's region comes out of one run extraction and vertical merge
    over the whole strip (:func:`_window_runs`).  Each window gets a
    read-only ``(k, 4)`` int64 view of its column's rects: exactly the
    canonical rect list ``rect_set_subtract([inner], bloated)``
    produces, in the same order, and ``(0, 4)`` when nothing is free.
    ``windows`` restricts the output to those windows.
    """
    margin = rules.min_spacing
    bloated = layer.wire_boxes + np.array([-margin, -margin, margin, margin], dtype=_I64)
    regions: Dict[WindowKey, IntArray] = {}
    for i, js in _column_rows(grid, windows).items():
        live: Dict[int, Rect] = {}
        for j in js:
            regions[(i, j)] = NO_REGION
            win = grid.window(i, j)
            inner = win.shrunk(window_margin) if window_margin else win
            if inner is not None:
                live[j] = inner
        if not live:
            continue
        frames = boxes(live.values(), len(live))
        x_cuts = frames[0, 0::2]  # shared by the column
        y_cuts = np.unique(frames[:, 1::2])
        m = (bloated[:, 0] < x_cuts[1]) & (bloated[:, 2] > x_cuts[0])
        xs, ys, occupied = strip_occupancy(bloated[m], x_cuts, y_cuts)
        box, window = _window_runs(xs, ys, occupied, frames[:, 1], frames[:, 3])
        box.flags.writeable = False
        ends = np.cumsum(np.bincount(window, minlength=len(live))).tolist()
        for j, start, end in zip(live, [0] + ends, ends):
            regions[(i, j)] = box[start:end]
    return regions
