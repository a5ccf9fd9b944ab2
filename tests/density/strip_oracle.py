"""The window-column strip raster: the oracle of the per-window tile pass.

Before the tile pass, each window column was rasterized as one strip:
every x-line of the column crossed with every y-line of it, so a
window's grid held the edges of every shape in its column.  The strip
covered-area map and the strip fill-region cutter are kept here as
they ran, for ``tests/density/test_window_tiles.py`` to hold
:func:`repro.density.raster.covered_area_map` and
:func:`repro.density.raster.raster_fill_regions` to, row for row.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.density.raster import NO_REGION, window_cuts
from repro.geometry import boxes

WindowKey = Tuple[int, int]


def strip_occupancy(box, x_cuts, y_cuts):
    """Occupancy raster of rects clipped to the frame of the cut lines.

    ``x_cuts``/``y_cuts`` are sorted cut coordinates; the frame spans
    from the first to the last of each.  Returns ``(xs, ys, occupied)``:
    the sorted distinct cell boundaries per axis (every cut and every
    clipped edge), and the ``(len(xs) - 1, len(ys) - 1)`` int32 grid
    whose cell ``[a, b]`` is 1 where some rect covers it.
    """
    cx0 = np.clip(box[:, 0], x_cuts[0], x_cuts[-1])
    cx1 = np.clip(box[:, 2], x_cuts[0], x_cuts[-1])
    cy0 = np.clip(box[:, 1], y_cuts[0], y_cuts[-1])
    cy1 = np.clip(box[:, 3], y_cuts[0], y_cuts[-1])
    keep = (cx1 > cx0) & (cy1 > cy0)
    cx0, cx1, cy0, cy1 = cx0[keep], cx1[keep], cy0[keep], cy1[keep]
    xs = np.unique(np.concatenate((cx0, cx1, x_cuts)))
    ys = np.unique(np.concatenate((cy0, cy1, y_cuts)))
    i0, i1 = np.searchsorted(xs, cx0), np.searchsorted(xs, cx1)
    j0, j1 = np.searchsorted(ys, cy0), np.searchsorted(ys, cy1)
    counts = np.zeros((len(xs), len(ys)), dtype=np.int32)
    np.add.at(counts, (i0, j0), 1)
    np.add.at(counts, (i1, j0), -1)
    np.add.at(counts, (i0, j1), -1)
    np.add.at(counts, (i1, j1), 1)
    np.add.accumulate(counts, axis=0, out=counts)
    np.add.accumulate(counts, axis=1, out=counts)
    np.minimum(counts, 1, out=counts)
    return xs, ys, counts[:-1, :-1]


def strip_cells(box, x_cuts, y_cuts):
    """The cell count of :func:`strip_occupancy`'s raster."""
    xs, ys, occupied = strip_occupancy(box, x_cuts, y_cuts)
    return occupied.size


def _column_rows(grid, windows: Optional[Sequence[WindowKey]]) -> Dict[int, List[int]]:
    """The distinct requested rows of each window column, ascending."""
    if windows is None:
        return {i: list(range(grid.rows)) for i in range(grid.cols)}
    rows: Dict[int, Set[int]] = {}
    for i, j in windows:
        rows.setdefault(i, set()).add(j)
    return {i: sorted(js) for i, js in rows.items()}


def strip_area_map(box, grid, *, windows=None):
    """Per-window covered area, one strip raster per window column.

    Each requested column rasterizes the rows from its lowest to its
    highest requested window; every other window stays zero.
    """
    x_cuts, y_cuts = window_cuts(grid)
    out = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    if not len(box):
        return out
    cols = np.asarray(x_cuts, dtype=np.int64)
    rows = np.asarray(y_cuts, dtype=np.int64)
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
        covered_width = np.einsum("i,ij->j", np.diff(xs), occupied)
        per_cell = covered_width * np.diff(ys)
        per_row = np.add.reduceat(per_cell, np.searchsorted(ys, rows[lo:hi]))
        out[i, js] = per_row[np.asarray(js) - lo]
    return out


def _window_runs(xs, ys, occupied, yl, yh):
    """The free rects of every window of one column strip, and their windows.

    Window ``w`` spans ``yl[w] <= y < yh[w]``.  Every maximal x-run of
    free cells of every y-cell is tagged with the window its y-cell
    lies in (runs in no window are dropped), and runs of one window
    with the same x-cells in consecutive y-cells merge into one rect.
    Returns the rects, ordered by window, then ``(xl, yl, xh, yh)``,
    and the window of each.
    """
    low = ys[:-1]
    cell_window = np.searchsorted(yl, low, "right") - 1
    cell_window[(cell_window < 0) | (low >= yh[cell_window])] = -1
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
    box = np.column_stack(
        (xs[start[first]], ys[row[first]], xs[end[first]], ys[row[last] + 1])
    )
    window = window[first]
    order = np.lexsort((box[:, 3], box[:, 2], box[:, 1], box[:, 0], window))
    return box[order], window[order]


def strip_fill_regions(layer, grid, rules, window_margin=0, windows=None):
    """Feasible fill region per window, cut from one strip raster per column.

    The layer's wire boxes bloated by the minimum spacing are
    rasterized once per column strip, with the inset windows' edges as
    cut lines, and :func:`_window_runs` cuts every window's region.
    """
    margin = rules.min_spacing
    bloated = layer.wire_boxes + np.array([-margin, -margin, margin, margin], dtype=np.int64)
    regions = {}
    for i, js in _column_rows(grid, windows).items():
        live = {}
        for j in js:
            regions[(i, j)] = NO_REGION
            win = grid.window(i, j)
            inner = win.shrunk(window_margin) if window_margin else win
            if inner is not None:
                live[j] = inner
        if not live:
            continue
        frames = boxes(live.values(), len(live))
        x_cuts = frames[0, 0::2]
        y_cuts = np.unique(frames[:, 1::2])
        m = (bloated[:, 0] < x_cuts[1]) & (bloated[:, 2] > x_cuts[0])
        xs, ys, occupied = strip_occupancy(bloated[m], x_cuts, y_cuts)
        box, window = _window_runs(xs, ys, occupied, frames[:, 1], frames[:, 3])
        ends = np.cumsum(np.bincount(window, minlength=len(live))).tolist()
        for j, start, end in zip(live, [0] + ends, ends):
            regions[(i, j)] = box[start:end]
    return regions
