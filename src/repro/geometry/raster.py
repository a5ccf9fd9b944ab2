"""Coordinate-compressed occupancy rasters with exact free regions.

The array core under :func:`repro.density.raster.raster_fill_regions`:
a set of integer rectangles is rasterized **once** onto the non-uniform
grid induced by its own edge coordinates (plus any caller-supplied cut
lines, e.g. window boundaries).  On that grid every input rectangle is
a union of whole cells, so the raster is *exact* — not an approximation
at some fixed resolution:

* multiplicity per cell (``counts``) via a 2-D difference array and two
  cumulative sums,
* the union view as the boolean occupancy (``counts > 0``),
* canonical free-region recovery via maximal-run extraction and
  vertical merging, matching the scanline oracle's output rect list.

Everything stays int64, which keeps the raster path bit-compatible with
the rect-set oracle in :mod:`repro.geometry.boolean`.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from .rect import Rect

__all__ = ["IntArray", "BoolArray", "Raster", "merge_mask_runs"]

IntArray = np.ndarray[Any, np.dtype[np.int64]]
BoolArray = np.ndarray[Any, np.dtype[np.bool_]]

_I64 = np.int64


def _span(lo: IntArray, hi: IntArray, extra: Sequence[int]) -> Tuple[int, int]:
    """Coordinate span of a raster axis.

    With ``extra`` cut lines the span is *their* extent — shapes are
    clipped to the frame the caller laid out; without, it is the
    shapes' own extent.
    """
    if len(extra):
        return min(extra), max(extra)
    if len(lo):
        return int(np.asarray(lo).min()), int(np.asarray(hi).max())
    return 0, 0


class Raster:
    """Multiplicity raster of a rectangle set on a compressed grid.

    ``xs``/``ys`` are the sorted distinct cut coordinates (cell
    boundaries); cell ``(i, j)`` spans ``[xs[i], xs[i+1]) x
    [ys[j], ys[j+1])`` and ``counts[i, j]`` is the number of input
    rectangles covering it.  Rectangles are clipped to the edge span;
    degenerate rectangles contribute nothing.
    """

    __slots__ = ("xs", "ys", "counts")

    def __init__(self, xs: IntArray, ys: IntArray, counts: IntArray):
        self.xs = xs
        self.ys = ys
        self.counts = counts

    @classmethod
    def from_arrays(
        cls,
        x0: IntArray,
        y0: IntArray,
        x1: IntArray,
        y1: IntArray,
        extra_x: Sequence[int] = (),
        extra_y: Sequence[int] = (),
    ) -> "Raster":
        """Rasterize rectangles given as coordinate arrays.

        Rectangle coordinates are *clipped to the span of the combined
        edge set* before becoming edges themselves, so callers can pass
        ``extra_*`` bounds (e.g. one window-column strip) and shapes
        hanging past them without inflating the grid: only the clipped
        part contributes edges and coverage.
        """
        lo_x, hi_x = _span(x0, x1, extra_x)
        lo_y, hi_y = _span(y0, y1, extra_y)
        cx0 = np.clip(np.asarray(x0, dtype=_I64), lo_x, hi_x)
        cx1 = np.clip(np.asarray(x1, dtype=_I64), lo_x, hi_x)
        cy0 = np.clip(np.asarray(y0, dtype=_I64), lo_y, hi_y)
        cy1 = np.clip(np.asarray(y1, dtype=_I64), lo_y, hi_y)
        keep = (cx1 > cx0) & (cy1 > cy0)
        cx0, cx1, cy0, cy1 = cx0[keep], cx1[keep], cy0[keep], cy1[keep]
        xs = np.unique(np.concatenate([cx0, cx1, np.asarray(list(extra_x), dtype=_I64)]))
        ys = np.unique(np.concatenate([cy0, cy1, np.asarray(list(extra_y), dtype=_I64)]))
        nx = max(0, len(xs) - 1)
        ny = max(0, len(ys) - 1)
        counts: IntArray = np.zeros((nx, ny), dtype=_I64)
        if nx and ny and len(cx0):
            i0 = np.searchsorted(xs, cx0)
            i1 = np.searchsorted(xs, cx1)
            j0 = np.searchsorted(ys, cy0)
            j1 = np.searchsorted(ys, cy1)
            diff: IntArray = np.zeros((nx + 1, ny + 1), dtype=_I64)
            np.add.at(diff, (i0, j0), 1)
            np.add.at(diff, (i1, j0), -1)
            np.add.at(diff, (i0, j1), -1)
            np.add.at(diff, (i1, j1), 1)
            counts = diff.cumsum(axis=0).cumsum(axis=1)[:nx, :ny]
        return cls(xs, ys, counts)

    def occupancy(self) -> BoolArray:
        """Boolean covered-per-cell (the union view of the rect set)."""
        return self.counts > 0

    # ------------------------------------------------------------------
    def free_rects_in(self, i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> List[Rect]:
        """Canonical maximal rects of the *uncovered* cells in a block.

        The block is the cell-index range ``[i_lo, i_hi) x
        [j_lo, j_hi)`` (e.g. one window's inner region, whose
        boundaries must be raster edges).  The construction — maximal
        horizontal runs per cell row, then merging vertically adjacent
        runs with identical x-spans — reproduces exactly the canonical
        form produced by the scanline oracle
        (:func:`repro.geometry.boolean.rect_set_subtract`), which is
        invariant under refinement of the slab edges.  Rects are
        returned sorted by ``(xl, yl, xh, yh)``.
        """
        free = ~self.occupancy()[i_lo:i_hi, j_lo:j_hi]
        s, e, r0, r1 = merge_mask_runs(free)
        xs, ys = self.xs, self.ys
        rects = [
            Rect(
                int(xs[i_lo + a]),
                int(ys[j_lo + b]),
                int(xs[i_lo + c]),
                int(ys[j_lo + d]),
            )
            for a, b, c, d in zip(s, r0, e, r1)
        ]
        rects.sort()
        return rects


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
