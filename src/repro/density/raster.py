"""Array passes of the §3.1 density analysis: window areas and fill regions.

The raster passes rasterize each window on its own compressed grid
with :func:`repro.geometry.tile_runs`, the one rasterizer, one window
column at a time.  :func:`covered_area_map` (and
:func:`raster_area_map`, the same map of a ``Rect`` sequence) is the
one covered-area map: the analysis's ``l(i, j)``, every wire and
total-metal density map, and each term of the score's overlay
(:func:`~repro.density.analysis.overlay_map`) run on it, so every
per-window union area of the package is one call.
:func:`raster_fill_regions` is the fill-region cutter
:func:`~repro.density.analysis.analyze_layer` runs unless the scanline
cutter is named: one tile pass per column, whose windows get
read-only int64 box arrays with the scanline cutter's rects, in the
same order.  :func:`clipped_area_map` is the one per-window *sum* of
clipped areas: the fill density the replanning round reads, in memory
and streamed alike.  It and the tile passes share one expansion of
each rect into the windows it meets (:func:`_window_pairs`).

Why this is exact and not an approximation: a window's grid is the
coordinate grid *induced by the shapes clipped to it* (plus the
window's edges), so every shape is a union of whole cells and all
sums are int64.  Floats appear only in the final density divisions.

Why it is fast, and stays linear in memory: the fixed dissection makes
a window's area and free region depend only on the shapes inside it,
so a window's grid holds only their edges, not those of its whole
column (on filled suite b, 108k cells for one layer's wires where the
column strips needed 1.16M), and one tile pass per window column
replaces thousands of per-window rect-set constructions and run
extractions while bounding the working set to one column.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry import IntArray, Rect, boxes, tile_runs
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


def _window_pairs(
    box: IntArray, x_cuts: IntArray, y_cuts: IntArray
) -> Tuple[IntArray, IntArray, IntArray]:
    """``(rect, i, j)`` for every window ``(i, j)`` each rect meets.

    A rect meets a range of window columns and rows, found by
    ``searchsorted`` on the cut lines and clamped to the grid; the
    pairs come ordered by rect, then column, then row.  A rect that
    only touches a window's edge does not meet it; a zero-width or
    zero-height one may meet a window it adds no area to.
    """
    i0 = np.maximum(np.searchsorted(x_cuts, box[:, 0], "right") - 1, 0)
    i1 = np.minimum(np.searchsorted(x_cuts, box[:, 2], "left"), len(x_cuts) - 1)
    j0 = np.maximum(np.searchsorted(y_cuts, box[:, 1], "right") - 1, 0)
    j1 = np.minimum(np.searchsorted(y_cuts, box[:, 3], "left"), len(y_cuts) - 1)
    span = np.maximum(j1 - j0, 0)
    count = np.maximum(i1 - i0, 0) * span
    rect = np.repeat(np.arange(len(box)), count)
    local = np.arange(len(rect)) - np.repeat(np.cumsum(count) - count, count)
    return rect, i0[rect] + local // span[rect], j0[rect] + local % span[rect]


def _cut_arrays(grid: WindowGrid) -> Tuple[IntArray, IntArray]:
    x_cuts, y_cuts = window_cuts(grid)
    return np.asarray(x_cuts, dtype=_I64), np.asarray(y_cuts, dtype=_I64)


def clipped_area_map(box: IntArray, grid: WindowGrid) -> np.ndarray:
    """Per window, the int64 sum of each rect's area clipped to it.

    ``box`` is an ``(n, 4)`` int64 box array.  A point covered by two
    rects counts twice: this is a sum, not the union
    :func:`covered_area_map` measures, and area outside the grid's die
    is not counted.  Each (rect, window) pair of
    :func:`_window_pairs` adds the rect's clipped width times its
    clipped height.
    """
    x_cuts, y_cuts = _cut_arrays(grid)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    rect, i, j = _window_pairs(box, x_cuts, y_cuts)
    b = box[rect]
    width = np.minimum(b[:, 2], x_cuts[i + 1]) - np.maximum(b[:, 0], x_cuts[i])
    height = np.minimum(b[:, 3], y_cuts[j + 1]) - np.maximum(b[:, 1], y_cuts[j])
    np.add.at(out, (i, j), width * height)
    return out


def _column_tiles(
    box: IntArray,
    grid: WindowGrid,
    windows: Optional[Sequence[WindowKey]],
    margin: int,
) -> Iterator[Tuple[int, IntArray, IntArray, IntArray, IntArray]]:
    """Each window column's frames and the rects clipped to them.

    A frame is a window shrunk by ``margin``; a window that shrinks to
    nothing, or that ``windows`` does not name, has none.  Yields
    ``(i, rows, frames, clip, where)`` for each column ``i`` with a
    frame, in column order: the rows of its frames, ascending, the
    frames as ``(f, 4)`` int64 rows, and every part of positive area of
    a rect inside a frame, with that frame's index.  Only the boxes
    that reach the frames' bounding box are expanded into (rect,
    window) pairs and clipped, so a few requested windows cost little
    more than their own shapes.
    """
    x_cuts, y_cuts = _cut_arrays(grid)
    xl, xh = x_cuts[:-1] + margin, x_cuts[1:] - margin
    yl, yh = y_cuts[:-1] + margin, y_cuts[1:] - margin
    live = np.outer(xl < xh, yl < yh)
    if windows is not None:
        wanted = np.zeros_like(live)
        wanted[tuple(np.array(list(windows), dtype=_I64).reshape(-1, 2).T)] = True
        live &= wanted
    cols, lit = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    if not len(cols):
        return
    box = box[
        (box[:, 0] < xh[cols[-1]])
        & (box[:, 2] > xl[cols[0]])
        & (box[:, 1] < yh[lit[-1]])
        & (box[:, 3] > yl[lit[0]])
    ]
    rect, i, j = _window_pairs(box, x_cuts, y_cuts)
    keep = live[i, j]
    order = np.argsort(i[keep], kind="stable")
    rect, i, j = rect[keep][order], i[keep][order], j[keep][order]
    bounds = np.searchsorted(i, np.arange(grid.cols + 1)).tolist()
    frame_of = np.zeros(grid.rows, dtype=_I64)
    for col in cols.tolist():
        rows = np.flatnonzero(live[col])
        frames = np.empty((len(rows), 4), dtype=_I64)
        frames[:, 0], frames[:, 2] = xl[col], xh[col]
        frames[:, 1], frames[:, 3] = yl[rows], yh[rows]
        frame_of[rows] = np.arange(len(rows))
        at = slice(bounds[col], bounds[col + 1])
        where = frame_of[j[at]]
        b, f = box[rect[at]], frames[where]
        clip = np.concatenate(
            (np.maximum(b[:, :2], f[:, :2]), np.minimum(b[:, 2:], f[:, 2:])), axis=1
        )
        keep = (clip[:, 0] < clip[:, 2]) & (clip[:, 1] < clip[:, 3])
        yield col, rows, frames, clip[keep], where[keep]


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
    ``windows`` restricts the work to those window keys, and every
    other window stays zero.

    Per window column, the rects clipped to each window are rasterized
    on the window's own grid (:func:`~repro.geometry.tile_runs`), and a
    window's area is the int64 sum of its covered runs' width times
    their y-cell's height.
    """
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    if not len(box):
        return out
    for i, rows, frames, clip, where in _column_tiles(box, grid, windows, 0):
        if len(clip):
            runs, frame = tile_runs(clip, where, frames)
            area = (runs[:, 2] - runs[:, 0]) * (runs[:, 3] - runs[:, 1])
            np.add.at(out[i], rows[frame], area)
    return out


def _merged(runs: IntArray, frame: IntArray) -> Tuple[IntArray, IntArray]:
    """Runs of one frame with the same x-span in adjacent y-cells, as one rect.

    ``runs`` are one y-cell tall; a frame's y-cells tile it, so two
    runs lie in adjacent y-cells when one's ``yl`` is the other's
    ``yh``.  Runs of different frames never merge, so a window edge
    always breaks the merge.  Returns the ``(k, 4)`` rects, ordered by
    frame, then ``(xl, yl, xh, yh)``, and the frame of each.
    """
    order = np.lexsort((runs[:, 1], runs[:, 2], runs[:, 0], frame))
    runs, frame = runs[order], frame[order]
    new = np.ones(len(runs), dtype=bool)
    new[1:] = (
        (frame[1:] != frame[:-1])
        | (runs[1:, 0] != runs[:-1, 0])
        | (runs[1:, 2] != runs[:-1, 2])
        | (runs[1:, 1] != runs[:-1, 3])
    )
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(runs)) - 1 if len(first) else first
    box: IntArray = np.column_stack((runs[first, :3], runs[last, 3]))
    frame = frame[first]
    order = np.lexsort((box[:, 3], box[:, 2], box[:, 1], box[:, 0], frame))
    return box[order], frame[order]


def raster_fill_regions(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    windows: Optional[Sequence[WindowKey]] = None,
) -> Dict[WindowKey, IntArray]:
    """Feasible fill region per window, cut from one tile pass per column.

    Obstacles are the layer's wire boxes bloated by the minimum
    spacing.  Per window column, each inset window's obstacles are
    clipped to it and its free runs (:func:`~repro.geometry.tile_runs`)
    merge vertically inside it (:func:`_merged`).  Each window gets a
    read-only ``(k, 4)`` int64 view of its column's rects: exactly the
    canonical rect list ``rect_set_subtract([inner], bloated)``
    produces, in the same order, and ``(0, 4)`` when nothing is free.
    ``windows`` restricts the output to those windows.
    """
    margin = rules.min_spacing
    bloated = layer.wire_boxes + np.array([-margin, -margin, margin, margin], dtype=_I64)
    regions: Dict[WindowKey, IntArray] = {
        (i, j): NO_REGION for i, js in _column_rows(grid, windows).items() for j in js
    }
    for i, rows, frames, clip, where in _column_tiles(bloated, grid, windows, window_margin):
        box, frame = _merged(*tile_runs(clip, where, frames, free=True))
        box.flags.writeable = False
        ends = np.cumsum(np.bincount(frame, minlength=len(rows))).tolist()
        for j, start, end in zip(rows.tolist(), [0] + ends, ends):
            regions[(i, j)] = box[start:end]
    return regions
