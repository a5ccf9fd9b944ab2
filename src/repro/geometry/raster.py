"""Coordinate-compressed strip rasters and the Rect/int64 array boundary.

:func:`strip_occupancy` is the package's one rasterizer.  A set of
integer rectangles is rasterized onto the non-uniform grid induced by
its own edge coordinates plus the caller's cut lines (one window-column
strip and its window rows).  On that grid every clipped rectangle is a
union of whole cells, so the raster is *exact* — not an approximation
at some fixed resolution.  :mod:`repro.density.raster` builds both of
its passes on it: the per-window covered area behind every density map
and the overlay, and the free fill regions, which :func:`merge_mask_runs`
recovers as maximal runs merged vertically, the canonical form the
scanline boolean of :mod:`repro.geometry.boolean` produces.

:func:`boxes` and :func:`rects_of` are the one boundary between
:class:`~repro.geometry.rect.Rect` lists and ``(n, 4)`` int64 arrays of
``(xl, yl, xh, yh)`` rows, which every array stage reads and writes;
:func:`touching` is the range query over such an array.
Everything stays int64 (the occupancy grid is int32 cell flags), which
keeps the raster passes bit-compatible with the rect-set oracles.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Iterable, List, Tuple

import numpy as np

from .rect import Rect

__all__ = [
    "IntArray",
    "BoolArray",
    "OccupancyArray",
    "boxes",
    "rects_of",
    "touching",
    "strip_occupancy",
    "merge_mask_runs",
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

    Shared edges and corners count, as in :meth:`Rect.touches`: these
    are the ids :meth:`~repro.geometry.GridIndex.query` returns for the
    rects inserted in row order, in the same order.
    """
    return np.flatnonzero(
        (box[:, 0] <= frame.xh)
        & (frame.xl <= box[:, 2])
        & (box[:, 1] <= frame.yh)
        & (frame.yl <= box[:, 3])
    )


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


def merge_mask_runs(mask: BoolArray) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
    """Maximal-run extraction + vertical merge over a boolean cell mask.

    ``mask[i, j]`` is True where cell ``(i, j)`` (column ``i``, row
    ``j``) belongs to the region.  Returns ``(i0, i1, j0, j1)`` cell
    index arrays of the canonical disjoint rectangles: maximal
    horizontal runs per row, vertically merged whenever consecutive
    rows carry an identical x-span — the same canonical form the
    scanline boolean's vertical merge produces.  Order is unspecified;
    callers sort the materialized rects.
    """
    empty: IntArray = np.zeros(0, dtype=_I64)
    if mask.size == 0 or not bool(mask.any()):
        return empty, empty, empty, empty
    rows = mask.T.astype(np.int8)  # (ny, nx): runs go along axis 1
    ny, nx = rows.shape
    padded: np.ndarray[Any, np.dtype[np.int8]] = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = rows
    d = np.diff(padded, axis=1)
    run_row, run_start = np.nonzero(d == 1)
    _, run_end = np.nonzero(d == -1)
    # np.nonzero is row-major, so starts and ends pair up elementwise
    # per row; run k spans columns [run_start[k], run_end[k]).
    order = np.lexsort((run_row, run_end, run_start))
    s = run_start[order].astype(_I64)
    e = run_end[order].astype(_I64)
    r = run_row[order].astype(_I64)
    new_group = np.ones(len(s), dtype=bool)
    if len(s) > 1:
        new_group[1:] = (s[1:] != s[:-1]) | (e[1:] != e[:-1]) | (r[1:] != r[:-1] + 1)
    firsts = np.flatnonzero(new_group)
    lasts = np.append(firsts[1:], len(s)) - 1
    return s[firsts], e[firsts], r[firsts], r[lasts] + 1
