"""Coordinate-compressed strip rasters and the Rect/int64 array boundary.

:func:`strip_occupancy` is the package's one rasterizer.  A set of
integer rectangles is rasterized onto the non-uniform grid induced by
its own edge coordinates plus the caller's cut lines (one window-column
strip and its window rows).  On that grid every clipped rectangle is a
union of whole cells, so the raster is *exact* — not an approximation
at some fixed resolution.  :mod:`repro.density.raster` builds both of
its passes on it: the per-window covered area behind every density map
and the overlay, and the free fill regions, recovered per column strip
as maximal runs merged vertically, the canonical form the scanline
boolean of :mod:`repro.geometry.boolean` produces.

:func:`boxes` and :func:`rects_of` are the one boundary between
:class:`~repro.geometry.rect.Rect` lists and ``(n, 4)`` int64 arrays of
``(xl, yl, xh, yh)`` rows, which every array stage reads and writes.
The program's neighbour searches run on such arrays: :func:`touching`
is the range query over one, :func:`near_pairs` the join of every box
of one with the boxes of another within a distance.
Everything stays int64 (the occupancy grid is int32 cell flags), which
keeps the raster passes bit-compatible with the rect-set oracles.
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
    "OccupancyArray",
    "boxes",
    "typed_boxes",
    "rects_of",
    "touching",
    "near_pairs",
    "strip_occupancy",
]

IntArray = np.ndarray[Any, np.dtype[np.int64]]
BoolArray = np.ndarray[Any, np.dtype[np.bool_]]
OccupancyArray = np.ndarray[Any, np.dtype[np.int32]]

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


def strip_occupancy(
    box: IntArray, x_cuts: IntArray, y_cuts: IntArray
) -> Tuple[IntArray, IntArray, OccupancyArray]:
    """Occupancy raster of rects clipped to the frame of the cut lines.

    ``x_cuts``/``y_cuts`` are sorted cut coordinates; the frame spans
    from the first to the last of each.  The rows of ``box`` are
    clipped to the frame before they become edges, so shapes hanging
    past it do not inflate the grid.  Returns ``(xs, ys, occupied)``:
    the sorted distinct cell boundaries per axis (every cut and every
    clipped edge), and the ``(len(xs) - 1, len(ys) - 1)`` int32 grid
    whose cell ``[a, b]``, spanning ``[xs[a], xs[a+1]) x
    [ys[b], ys[b+1])``, is 1 where some rect covers it and 0 elsewhere.

    One int32 difference grid is cumulated in place into per-cell
    multiplicities and clipped to 1 in place, so no int64 copy of the
    grid is made.
    """
    cx0 = np.clip(box[:, 0], x_cuts[0], x_cuts[-1])
    cx1 = np.clip(box[:, 2], x_cuts[0], x_cuts[-1])
    cy0 = np.clip(box[:, 1], y_cuts[0], y_cuts[-1])
    cy1 = np.clip(box[:, 3], y_cuts[0], y_cuts[-1])
    keep = (cx1 > cx0) & (cy1 > cy0)
    cx0, cx1, cy0, cy1 = cx0[keep], cx1[keep], cy0[keep], cy1[keep]
    xs: IntArray = np.unique(np.concatenate((cx0, cx1, x_cuts)))
    ys: IntArray = np.unique(np.concatenate((cy0, cy1, y_cuts)))
    i0, i1 = np.searchsorted(xs, cx0), np.searchsorted(xs, cx1)
    j0, j1 = np.searchsorted(ys, cy0), np.searchsorted(ys, cy1)
    counts: OccupancyArray = np.zeros((len(xs), len(ys)), dtype=np.int32)
    np.add.at(counts, (i0, j0), 1)
    np.add.at(counts, (i1, j0), -1)
    np.add.at(counts, (i0, j1), -1)
    np.add.at(counts, (i1, j1), 1)
    np.add.accumulate(counts, axis=0, out=counts)
    np.add.accumulate(counts, axis=1, out=counts)
    np.minimum(counts, 1, out=counts)  # multiplicity -> occupancy
    return xs, ys, counts[:-1, :-1]
