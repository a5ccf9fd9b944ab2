"""Per-window tile rasters and the Rect/int64 array boundary.

:func:`tile_runs` is the package's one rasterizer.  Each window (a
*frame*) is rasterized on its own coordinate-compressed grid: the
frame's edges plus the edges of the rects clipped to it.  On that grid
every clipped rectangle is a union of whole cells, so the raster is
*exact* — not an approximation at some fixed resolution — and a
window's grid grows only with the shapes inside it.
:mod:`repro.density.raster` builds both of its passes on it, one call
per window column: the per-window covered area behind every density
map and the overlay, and the free fill regions, recovered per window
as maximal runs merged vertically, the canonical form the scanline
boolean of :mod:`repro.geometry.boolean` produces.

:func:`boxes` and :func:`rects_of` are the one boundary between
:class:`~repro.geometry.rect.Rect` lists and ``(n, 4)`` int64 arrays of
``(xl, yl, xh, yh)`` rows, which every array stage reads and writes.
The program's neighbour searches run on such arrays: :func:`touching`
is the range query over one, :func:`near_pairs` the join of every box
of one with the boxes of another within a distance.
Everything stays int64, which keeps the raster passes bit-compatible
with the rect-set oracles.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .rect import Rect

__all__ = [
    "IntArray",
    "BoolArray",
    "boxes",
    "typed_boxes",
    "rects_of",
    "touching",
    "near_pairs",
    "tile_runs",
]

IntArray = np.ndarray[Any, np.dtype[np.int64]]
BoolArray = np.ndarray[Any, np.dtype[np.bool_]]

_I64 = np.int64
_CORNERS = attrgetter("xl", "yl", "xh", "yh")


def boxes(rects: Iterable[Rect], n: int) -> IntArray:
    """The ``n`` rects of ``rects`` as an ``(n, 4)`` int64 array of
    ``(xl, yl, xh, yh)`` rows, in order."""
    flat: IntArray = np.fromiter(chain.from_iterable(map(_CORNERS, rects)), _I64, 4 * n)
    return flat.reshape(n, 4)


def typed_boxes(rects: Sequence[Rect]) -> np.ndarray[Any, np.dtype[Any]]:
    """The rects as an ``(n, 4)`` array of ``(xl, yl, xh, yh)`` rows in
    the dtype numpy infers from their coordinates.

    That is int64 when every coordinate is an integer that fits, and
    float64 or object when one is not.  :func:`boxes` is cheaper but
    truncates a float and raises on an overflow, so the entry points
    that must reject such a coordinate convert with this instead.
    """
    if not rects:
        return np.zeros((0, 4), dtype=_I64)
    return np.array(list(chain.from_iterable(map(_CORNERS, rects)))).reshape(-1, 4)


def rects_of(box: IntArray) -> List[Rect]:
    """The rows of an ``(n, 4)`` int64 box array as rects, in order.

    The rects share one int object per distinct coordinate, so a list
    that outlives its stage holds each value once.
    """
    values, index = np.unique(box, return_inverse=True)
    coord: List[int] = values.tolist()
    return [
        Rect(coord[a], coord[b], coord[c], coord[d])
        for a, b, c, d in index.reshape(-1, 4).tolist()
    ]


def touching(box: IntArray, frame: Rect) -> IntArray:
    """Rows of ``box`` whose closed box touches ``frame``, ascending.

    Shared edges and corners count, as in :meth:`Rect.touches`.
    """
    return np.flatnonzero(
        (box[:, 0] <= frame.xh)
        & (frame.xl <= box[:, 2])
        & (box[:, 1] <= frame.yh)
        & (frame.yl <= box[:, 3])
    )


#: most index pairs one :func:`_key_join` chunk materialises
_JOIN_CHUNK = 1 << 12


def _key_join(left: IntArray, right: IntArray) -> Iterator[Tuple[IntArray, IntArray]]:
    """Every ``(i, j)`` with ``left[i] == right[j]``; ``right`` is sorted.

    The pairs come ordered by ``i``, then ``j``, in chunks of at most
    ``_JOIN_CHUNK`` (more only when one ``i`` alone has more matches),
    so a caller keeps each chunk's few useful pairs before the next
    chunk is built.
    """
    start = np.searchsorted(right, left, "left")
    count = np.searchsorted(right, left, "right") - start
    before: IntArray = np.zeros(len(left) + 1, _I64)
    np.cumsum(count, out=before[1:])
    i0 = 0
    while i0 < len(left):
        i1 = int(np.searchsorted(before, before[i0] + _JOIN_CHUNK, "right")) - 1
        i1 = min(len(left), max(i1, i0 + 1))
        rows: IntArray = np.repeat(np.arange(i0, i1), count[i0:i1])
        cols: IntArray = np.repeat(start[i0:i1] - before[i0:i1], count[i0:i1]) + np.arange(
            before[i0], before[i1]
        )
        yield rows, cols
        i0 = i1


def _cell_keys(
    box: IntArray, cell: int, origin: Tuple[int, int], rows: int
) -> Tuple[IntArray, IntArray]:
    """``(key, row)`` for every grid cell each closed box meets, ordered
    by row, then key; a cell's key is ``x * rows + y`` in cells from
    ``origin``."""
    x0 = box[:, 0] // cell - origin[0]
    y0 = box[:, 1] // cell - origin[1]
    high = box[:, 3] // cell - origin[1] - y0 + 1
    count = (box[:, 2] // cell - origin[0] - x0 + 1) * high
    row: IntArray = np.repeat(np.arange(len(box)), count)
    local = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    key: IntArray = (x0[row] + local // high[row]) * rows + y0[row] + local % high[row]
    return key, row


def near_pairs(a: IntArray, b: IntArray, d: int) -> Tuple[IntArray, IntArray]:
    """Every ``(i, j)`` where ``a[i]`` grown by ``d`` touches ``b[j]``.

    Boxes are closed, as in :meth:`Rect.touches`, so a gap of exactly
    ``d`` on an edge or at a corner counts.  Returns the ``i`` and
    ``j`` arrays sorted by ``(i, j)``; a call with ``b`` the same set as
    ``a`` lists each pair both ways and every box with itself, and its
    caller keeps ``i < j``.

    Both sides are bucketed on a uniform grid of cells as wide as the
    larger side's median box extent; cell keys are joined chunk by
    chunk, and each chunk is cut down to its touching pairs before the
    next is built.  A pair meets in every cell both boxes cover and is
    kept in the one holding the low corner of their contact box.
    """
    if len(a) == 0 or len(b) == 0:
        empty: IntArray = np.zeros(0, dtype=_I64)
        return empty, empty
    grown = a + np.array([-d, -d, d, d], dtype=_I64)
    cell = max(
        1,
        int(np.median(np.maximum(grown[:, 2] - grown[:, 0], grown[:, 3] - grown[:, 1]))),
        int(np.median(np.maximum(b[:, 2] - b[:, 0], b[:, 3] - b[:, 1]))),
    )
    x0 = int(min(grown[:, 0].min(), b[:, 0].min())) // cell
    y0 = int(min(grown[:, 1].min(), b[:, 1].min())) // cell
    rows = int(max(grown[:, 3].max(), b[:, 3].max())) // cell - y0 + 1
    a_key, a_row = _cell_keys(grown, cell, (x0, y0), rows)
    b_key, b_row = _cell_keys(b, cell, (x0, y0), rows)
    order = np.argsort(b_key, kind="stable")
    b_key, b_row = b_key[order], b_row[order]
    hits_i: List[IntArray] = []
    hits_j: List[IntArray] = []
    for ea, eb in _key_join(a_key, b_key):
        i, j = a_row[ea], b_row[eb]
        lx = np.maximum(grown[i, 0], b[j, 0])
        ly = np.maximum(grown[i, 1], b[j, 1])
        hit = (
            (lx <= np.minimum(grown[i, 2], b[j, 2]))
            & (ly <= np.minimum(grown[i, 3], b[j, 3]))
            & ((lx // cell - x0) * rows + ly // cell - y0 == a_key[ea])
        )
        hits_i.append(i[hit])
        hits_j.append(j[hit])
    i_all: IntArray = np.concatenate(hits_i)
    j_all: IntArray = np.concatenate(hits_j)
    order = np.lexsort((j_all, i_all))
    return i_all[order], j_all[order]


def _frame_lines(
    edges: IntArray, where: IntArray, frames: IntArray
) -> Tuple[IntArray, IntArray, IntArray]:
    """One axis of the frames' compressed grids.

    ``frames`` holds each frame's low and high edge on the axis,
    ``edges`` those of the rects, each inside frame ``where``.  Every
    (frame, coordinate) pair becomes one key, ``frame * span +
    offset``, and one sort of the keys lists each frame's lines in
    order, frame after frame.  Returns ``(coord, first, line)``: each
    line's coordinate, the index of each frame's first line with the
    line count appended, and the line of every rect edge.
    """
    base = int(frames[:, 0].min())
    span = int(frames[:, 1].max()) - base + 1
    origin = np.arange(len(frames) + 1) * span  # frame w's keys lie in [origin[w], origin[w + 1])
    shift = origin[:-1] - base
    keys = edges + shift[where, None]
    # a sort and a mask: np.unique is several times slower on a column's few keys
    lines: IntArray = np.sort(np.concatenate((frames + shift[:, None], keys), axis=None))
    new = np.empty(len(lines), dtype=bool)
    new[0] = True
    np.not_equal(lines[1:], lines[:-1], out=new[1:])
    lines = lines[new]
    return lines % span + base, np.searchsorted(lines, origin), np.searchsorted(lines, keys)


def tile_runs(
    box: IntArray, where: IntArray, frames: IntArray, *, free: bool = False
) -> Tuple[IntArray, IntArray]:
    """Every covered x-run of every y-cell of each frame's own grid.

    ``frames`` is an ``(n, 4)`` int64 array of frames; each row of
    ``box`` is a rect of positive area inside frame ``where``.  A
    frame's grid has its own edges and its rects' edges as cut lines,
    so a window's raster holds only the shapes that meet it.  Every
    (frame, y-cell) is one row of the frame's x-lines, the last one a
    separator no run covers, and all rows of all frames lie end to end
    in one array: each rect adds +1 at its low and -1 at its high
    x-line in every row it spans, one cumulative sum gives each cell's
    cover count, and one transition pass finds the runs.  With
    ``free=True`` the runs are those of uncovered cells instead, and
    the separators count as covered so that no run crosses a row.

    Returns ``(runs, frame)``: the ``(k, 4)`` int64 box of each run,
    one y-cell tall, and its frame's index, ordered by frame, then
    ``yl``, then ``xl``.
    """
    xs, fx, gx = _frame_lines(box[:, 0::2], where, frames[:, 0::2])
    ys, fy, gy = _frame_lines(box[:, 1::2], where, frames[:, 1::2])
    # frame w's rows are its y-cells: y-lines fy[w] .. fy[w + 1] - 2,
    # numbered from fy[w] - w, each as long as the frame's x-line count
    row_frame = np.repeat(np.arange(len(frames)), fy[1:] - fy[:-1] - 1)
    row_len = (fx[1:] - fx[:-1])[row_frame]
    row_end = np.cumsum(row_len)
    row_start = row_end - row_len
    size = int(row_end[-1])
    count = gy[:, 1] - gy[:, 0]
    first_row = gy[:, 0] - where
    row = np.arange(int(count.sum())) + np.repeat(first_row - np.cumsum(count) + count, count)
    at = row_start[row]
    offset = gx - fx[where, None]
    lo = at + np.repeat(offset[:, 0], count)
    hi = at + np.repeat(offset[:, 1], count)
    depth = np.cumsum(np.bincount(lo, minlength=size) - np.bincount(hi, minlength=size))
    if free:
        mask = depth == 0
        mask[row_end - 1] = False
    else:
        mask = depth > 0
    # flip[k]: mask changes at k; the last entry is a separator, so
    # every run ends inside the array
    flip = mask.copy()
    flip[1:] ^= mask[:-1]
    edge = np.flatnonzero(flip)
    start, end = edge[0::2], edge[1::2]
    run_row = np.searchsorted(row_start, start, "right") - 1
    frame = row_frame[run_row]
    line = fx[frame] - row_start[run_row]
    y = run_row + frame
    runs: IntArray = np.column_stack((xs[start + line], ys[y], xs[end + line], ys[y + 1]))
    return runs, frame
