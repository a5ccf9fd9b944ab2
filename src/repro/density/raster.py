"""Vectorized raster density kernel for the §3.1 ``l(i, j)``/``u(i, j)`` analysis.

Array implementations of the per-window analysis quantities on
coordinate-compressed occupancy grids.  :func:`raster_area_map` is the
one covered-area kernel: every wire and total-metal density map of
:mod:`repro.density.analysis`, and so every score, runs on it.
:func:`raster_fill_regions` and :func:`raster_analyze_layer` are exact,
bit-identical replacements for their scanline counterparts in
:mod:`repro.density.analysis`, which stay in the tree as the rect
kernel: :func:`~repro.density.analysis.analyze_layer` runs this kernel
on whole window columns of a layer whose wires mostly run along them,
and the rect path everywhere else, so a fill of a layout with both
routing directions runs both kernels; the parity tests force each
kernel alone and compare, and check the area map against a 1-dbu
bitmap.

Why this is exact and not an approximation: the raster grid is the
coordinate grid *induced by the shapes themselves* (plus the window cut
lines), so every shape is a union of whole cells and all sums are
int64.  Floats appear only in the final density divisions, which use
the same operand values (and therefore the same IEEE-754 roundings) as
the oracle.

Why it is fast: one die-wide pass per layer replaces thousands of
per-window ``RectSet`` constructions.  To keep memory linear in the
shape count (a single global compressed grid is quadratic: 10k fills
would mean a 20k x 20k cell grid), all passes slice the die into
window-column strips; each strip's grid is small and the per-strip
results land directly in the output map's column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..contracts import check_density
from ..geometry import IntArray, Raster, Rect
from ..layout import DrcRules, Layer, WindowGrid

if TYPE_CHECKING:  # this module imports analysis lazily; no cycle at runtime
    from .analysis import LayerDensity

__all__ = [
    "window_cuts",
    "raster_area_map",
    "raster_fill_regions",
    "raster_analyze_layer",
]

_I64 = np.int64


def window_cuts(grid: WindowGrid) -> Tuple[List[int], List[int]]:
    """The grid's window boundary coordinates per axis.

    Matches :meth:`WindowGrid.window` exactly: uniform cuts except the
    last column/row, which absorbs the division remainder.
    """
    die = grid.die
    xs = [die.xl + i * grid.window_width for i in range(grid.cols)] + [die.xh]
    ys = [die.yl + j * grid.window_height for j in range(grid.rows)] + [die.yh]
    return xs, ys


def _coords(rects: Sequence[Rect]) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
    n = len(rects)
    x0: IntArray = np.empty(n, dtype=_I64)
    y0: IntArray = np.empty(n, dtype=_I64)
    x1: IntArray = np.empty(n, dtype=_I64)
    y1: IntArray = np.empty(n, dtype=_I64)
    for k, r in enumerate(rects):
        x0[k] = r.xl
        y0[k] = r.yl
        x1[k] = r.xh
        y1[k] = r.yh
    return x0, y0, x1, y1


def raster_area_map(
    shapes: Sequence[Rect],
    grid: WindowGrid,
    *,
    cols: Optional[Sequence[int]] = None,
) -> "np.ndarray":
    """Per-window covered area of ``shapes`` inside the grid's die.

    Each point counts once however many shapes cover it, so
    overlapping wires (and fills over wires) are not double counted.
    ``cols`` restricts the work to a subset of window columns (a band
    or a window-restricted analysis); other columns stay zero.

    Per window-column strip, the shapes clipped to the strip are
    rasterized onto the grid of their own edges (plus the window row
    cuts) as one int32 difference grid, cumulated in place into
    per-cell multiplicities.  Each y-cell's covered width is then the
    summed width of its covered x-cells, and a window row's area is
    the sum of width x height over its y-cells.  All sums are int64.
    """
    x_cuts, y_cuts = window_cuts(grid)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    if not shapes:
        return out
    x0, y0, x1, y1 = _coords(shapes)
    rows = np.asarray(y_cuts, dtype=_I64)
    y0 = np.maximum(y0, rows[0])
    y1 = np.minimum(y1, rows[-1])
    live = y1 > y0
    for i in (range(grid.cols) if cols is None else cols):
        sx0, sx1 = x_cuts[i], x_cuts[i + 1]
        m = live & (x0 < sx1) & (x1 > sx0)
        if not bool(m.any()):
            continue
        cx0 = np.maximum(x0[m], sx0)
        cx1 = np.minimum(x1[m], sx1)
        cy0, cy1 = y0[m], y1[m]
        xs = np.unique(np.concatenate([cx0, cx1, [sx0, sx1]]))
        ys = np.unique(np.concatenate([cy0, cy1, rows]))
        i0, i1 = np.searchsorted(xs, cx0), np.searchsorted(xs, cx1)
        j0, j1 = np.searchsorted(ys, cy0), np.searchsorted(ys, cy1)
        counts = np.zeros((len(xs), len(ys)), dtype=np.int32)
        np.add.at(counts, (i0, j0), 1)
        np.add.at(counts, (i1, j0), -1)
        np.add.at(counts, (i0, j1), -1)
        np.add.at(counts, (i1, j1), 1)
        np.add.accumulate(counts, axis=0, out=counts)
        np.add.accumulate(counts, axis=1, out=counts)
        np.minimum(counts, 1, out=counts)  # multiplicity -> occupancy
        # einsum casts the int32 grid buffer by buffer; a matrix product
        # would first copy it whole to int64
        covered_width = np.einsum("i,ij->j", np.diff(xs), counts[:-1, :-1])
        per_cell = covered_width * np.diff(ys)
        out[i, :] = np.add.reduceat(per_cell, np.searchsorted(ys, rows[:-1]))
    return out


def raster_fill_regions(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    keys: Optional[Sequence[Tuple[int, int]]] = None,
) -> Dict[Tuple[int, int], List[Rect]]:
    """Feasible fill region per window — raster twin of the regions
    the rect kernel of ``analysis.analyze_layer`` returns.

    Obstacles are bloated by the minimum spacing once, as coordinate
    arithmetic; per window-column strip the bloated set is rasterized
    with the inner-window boundaries as cut lines, and each window's
    region is recovered from the free cells as maximal horizontal runs
    merged vertically — exactly the canonical rect list
    ``rect_set_subtract([inner], bloated)`` produces, in the same
    order.  ``keys`` restricts the output to those windows.
    """
    margin = rules.min_spacing
    wanted: Dict[int, List[int]] = {}
    for (i, j) in (keys if keys is not None else ((i, j) for i, j, _ in grid)):
        wanted.setdefault(i, []).append(j)
    regions: Dict[Tuple[int, int], List[Rect]] = {}
    wx0, wy0, wx1, wy1 = _coords(layer.wires)
    bx0, by0 = wx0 - margin, wy0 - margin
    bx1, by1 = wx1 + margin, wy1 + margin
    for i, rows in wanted.items():
        inners = {
            j: (grid.window(i, j).shrunk(window_margin) if window_margin else grid.window(i, j))
            for j in rows
        }
        live = {j: inner for j, inner in inners.items() if inner is not None}
        for j in rows:
            regions[(i, j)] = []
        if not live:
            continue
        any_inner = next(iter(live.values()))
        extra_x = [any_inner.xl, any_inner.xh]  # shared by the column
        extra_y = sorted({c for r in live.values() for c in (r.yl, r.yh)})
        m = (bx0 < extra_x[1]) & (bx1 > extra_x[0])
        ras = Raster.from_arrays(bx0[m], by0[m], bx1[m], by1[m], extra_x, extra_y)
        for j, inner in live.items():
            i_lo = int(np.searchsorted(ras.xs, inner.xl))
            i_hi = int(np.searchsorted(ras.xs, inner.xh))
            j_lo = int(np.searchsorted(ras.ys, inner.yl))
            j_hi = int(np.searchsorted(ras.ys, inner.yh))
            regions[(i, j)] = ras.free_rects_in(i_lo, i_hi, j_lo, j_hi)
    return regions


def _usable_map(
    regions: Dict[Tuple[int, int], List[Rect]], grid: WindowGrid, rules: DrcRules
) -> "np.ndarray":
    from .analysis import usable_fill_area

    usable = np.zeros((grid.cols, grid.rows), dtype=_I64)
    for (i, j), region in regions.items():
        usable[i, j] = usable_fill_area(region, rules)
    return usable


def raster_analyze_layer(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    keys: Optional[Sequence[Tuple[int, int]]] = None,
) -> "LayerDensity":
    """Density analysis for one layer on the raster kernel.

    Produces a :class:`~repro.density.analysis.LayerDensity` that is
    bit-identical to the rect kernel's ``analyze_layer``: the int64
    window areas match exactly, and the density divisions use the same
    operand values, hence the same IEEE-754 results.  ``keys``
    restricts the work to the window-column strips holding those
    windows; every other window stays zero, as on the rect kernel.
    """
    from .analysis import LayerDensity, window_area_map

    aw = window_area_map(grid)
    cols = None if keys is None else sorted({i for i, _ in keys})
    areas = raster_area_map(layer.wires, grid, cols=cols)
    if keys is not None:
        wanted = np.zeros(areas.shape, dtype=bool)
        for key in keys:
            wanted[key] = True
        areas[~wanted] = 0
    lower = areas / aw
    regions = raster_fill_regions(layer, grid, rules, window_margin, keys=keys)
    upper = np.minimum(1.0, lower + _usable_map(regions, grid, rules) / aw)
    check_density(lower, name=f"layer {layer.number} lower density l(i,j)")
    check_density(upper, name=f"layer {layer.number} upper density u(i,j)")
    return LayerDensity(layer.number, lower, upper, regions)

