"""Density analysis: window density maps, fill regions, density bounds.

This is the "density analysis" phase of the classic two-phase flow the
paper builds on (§1): collect wire density and available fill regions
per window, from which the planner (§3.1) derives per-window density
bounds ``l(i, j)`` (existing wire density) and ``u(i, j)`` (wire density
plus everything the free space could hold).

All maps are numpy arrays of shape ``(cols, rows)`` indexed ``[i, j]``
with ``i`` the column, matching Eqn. (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..contracts import check_density
from ..geometry import GridIndex, Rect, RectSet, rect_set_subtract
from ..layout import DrcRules, Layer, Layout, WindowGrid
from .raster import raster_area_map

__all__ = [
    "window_area_map",
    "wire_density_map",
    "fill_density_map",
    "metal_density_map",
    "usable_fill_area",
    "LayerDensity",
    "analyze_layer",
    "analyze_layout",
    "refresh_analysis",
    "overlay_area",
    "overlay_map",
    "fill_overlay_area",
]


def _shape_index(shapes: Sequence[Rect], die: Rect) -> GridIndex[int]:
    cell = max(64, min(die.width, die.height) // 16)
    index: GridIndex[int] = GridIndex(cell)
    for k, s in enumerate(shapes):
        index.insert(s, k)
    return index


def wire_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Wire density ``d_w(i, j)`` per window — the lower bound l(i, j)."""
    return _to_density(raster_area_map(layer.wires, grid), grid)


def fill_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Dummy-fill density per window.

    Fills are disjoint by construction, so a plain clipped sum is their
    covered area.
    """
    areas = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    index = _shape_index(layer.fills, grid.die)
    for i, j, win in grid:
        hits = index.query_overlapping(win)
        if hits:
            areas[i, j] = sum(r.intersection_area(win) for r, _ in hits)
    return _to_density(areas, grid)


def metal_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Total layout density d(i, j): wires plus fills, each point once."""
    return _to_density(raster_area_map(layer.shapes, grid), grid)


def window_area_map(grid: WindowGrid) -> np.ndarray:
    """Window areas ``aw(i, j)`` as a ``(cols, rows)`` int64 array.

    The vectorized form of :meth:`WindowGrid.window_area` — the outer
    product of the column widths and row heights (only the last
    column/row can differ, by the division remainder).
    """
    widths = np.asarray(grid.column_widths(), dtype=np.int64)
    heights = np.asarray(grid.row_heights(), dtype=np.int64)
    return np.outer(widths, heights)


def _to_density(areas: np.ndarray, grid: WindowGrid) -> np.ndarray:
    return areas / window_area_map(grid)


def usable_fill_area(region: Sequence[Rect], rules: DrcRules) -> int:
    """Area of the region pieces a legal fill could actually occupy.

    Rectangles narrower than the minimum width in either dimension can
    never host a DRC-clean fill, so the density upper bound must not
    count them.
    """
    return sum(
        r.area
        for r in region
        if r.width >= rules.min_width
        and r.height >= rules.min_width
        and r.area >= rules.min_area
    )


def _analyze_window(
    index: GridIndex[int],
    win: Rect,
    win_area: int,
    rules: DrcRules,
    window_margin: int,
) -> Tuple[float, float, List[Rect]]:
    """Density bounds and fill region for one window.

    The single per-window analysis body: ``l`` (wire density), ``u``
    (wire density plus usable free space) and the feasible fill region.
    The full analysis, its window-restricted form (a band of the fill
    engine) and the incremental path (:func:`refresh_analysis`) all
    reach it through :func:`analyze_layer`, so they cannot drift; the
    raster kernel replaces it wholesale with array passes that
    reproduce its results bit for bit.
    """
    hits = index.query_overlapping(win)
    if hits:
        clipped = [r.intersection(win) for r, _ in hits]
        wire_area = RectSet(c for c in clipped if c is not None).area
    else:
        wire_area = 0
    lower = wire_area / win_area
    inner = win.shrunk(window_margin) if window_margin else win
    if inner is None:
        region: List[Rect] = []
    else:
        nearby = index.query_within(inner, rules.min_spacing)
        bloated = [r.expanded(rules.min_spacing) for r, _ in nearby]
        region = rect_set_subtract([inner], bloated)
    upper = min(1.0, lower + usable_fill_area(region, rules) / win_area)
    return lower, upper, region


@dataclass
class LayerDensity:
    """Density-analysis product for one layer.

    ``lower`` is ``l(i, j)`` (wire density) and ``upper`` is ``u(i, j)``
    (wire density plus usable free space) — the bounds that drive target
    density planning (§3.1, Eqn. (5)).  ``fill_regions`` is fr(l) per
    window: the window, inset by the window margin, minus every wire
    bloated by the minimum spacing — the disjoint rectangles where a
    fill may legally sit.
    """

    layer_number: int
    lower: np.ndarray
    upper: np.ndarray
    fill_regions: Dict[Tuple[int, int], List[Rect]]

    @property
    def max_lower(self) -> float:
        """max l(k, n) over all windows — the Case I target (Eqn. (6))."""
        return float(self.lower.max())

    @property
    def min_upper(self) -> float:
        """min u(k, n) over all windows — Case II search ceiling."""
        return float(self.upper.min())

    @property
    def has_constrained_window(self) -> bool:
        """True when some window cannot reach max l(k, n) — Eqn. (7)."""
        return bool((self.upper < self.max_lower - 1e-12).any())


def _choose_kernel(
    layer: Layer, grid: WindowGrid, windows: Optional[Sequence[Tuple[int, int]]]
) -> str:
    """The density kernel :func:`analyze_layer` runs when none is named.

    The raster kernel rasterizes whole window-column strips, so it is
    chosen only when the requested windows are whole columns (the full
    die or a band) and most of the layer's wires run along those
    columns (taller than wide).  Everything else runs on rect: layers
    routed across the columns, and every partial-column request such
    as the ECO refresh of a few dirtied windows.  docs/PERFORMANCE.md
    ("Raster kernel") has the measurements behind the rule.  The two
    kernels are bit-identical, so the choice only moves the clock; it
    reads nothing but the layer and the window set.
    """
    if windows is not None:
        columns = {i for i, _ in windows}
        if len(set(windows)) != len(columns) * grid.rows:
            return "rect"
    wires = layer.wires
    vertical = sum(1 for r in wires if r.height > r.width)
    return "raster" if 2 * vertical > len(wires) else "rect"


def analyze_layer(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    *,
    kernel: Optional[str] = None,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
) -> LayerDensity:
    """Run density analysis for one layer.

    Two kernels compute bit-identical results: ``"rect"`` is the
    scanline rect-set oracle (one :func:`_analyze_window` call per
    window), ``"raster"`` the vectorized occupancy-grid kernel
    (:mod:`repro.density.raster`).  ``kernel=None`` lets
    :func:`_choose_kernel` pick one from the layer's routing direction
    and the window set; naming one is for parity tests and per-kernel
    measurements.  The span counters ``analysis.rect_layers`` and
    ``analysis.raster_layers`` record which one ran.

    ``windows`` restricts the analysis to those window keys: only their
    ``lower``/``upper`` entries are computed (the rest stay zero) and
    only they get a fill region.  The layer then needs only the wires
    within spacing reach of those windows.
    """
    if (kernel or _choose_kernel(layer, grid, windows)) == "raster":
        obs.count("analysis.raster_layers")
        from .raster import raster_analyze_layer

        return raster_analyze_layer(layer, grid, rules, window_margin, keys=windows)
    obs.count("analysis.rect_layers")
    index = _shape_index(layer.wires, grid.die)
    lower = np.zeros((grid.cols, grid.rows), dtype=np.float64)
    upper = np.zeros((grid.cols, grid.rows), dtype=np.float64)
    regions: Dict[Tuple[int, int], List[Rect]] = {}
    keys = windows if windows is not None else [(i, j) for i, j, _ in grid]
    for i, j in keys:
        lo, up, region = _analyze_window(
            index, grid.window(i, j), grid.window_area(i, j), rules, window_margin
        )
        lower[i, j] = lo
        upper[i, j] = up
        regions[(i, j)] = region
    check_density(lower, name=f"layer {layer.number} lower density l(i,j)")
    check_density(upper, name=f"layer {layer.number} upper density u(i,j)")
    return LayerDensity(layer.number, lower, upper, regions)


def analyze_layout(
    layout: Layout,
    grid: WindowGrid,
    window_margin: int = 0,
    *,
    kernel: Optional[str] = None,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
) -> Dict[int, LayerDensity]:
    """Density analysis for every layer of a layout, in layer order.

    ``kernel`` is passed to every :func:`analyze_layer` call; the
    default lets each layer pick its own.  ``windows`` restricts every
    layer's analysis to those window keys (see :func:`analyze_layer`)
    — how the fill engine analyzes one part of a window-column band
    (:meth:`repro.core.DummyFillEngine.sweep`), which is also where
    the analysis runs on worker processes.
    """
    return {
        layer.number: analyze_layer(
            layer, grid, layout.rules, window_margin, kernel=kernel, windows=windows
        )
        for layer in layout.layers
    }


def refresh_analysis(
    layout: Layout,
    grid: WindowGrid,
    cached: Dict[int, LayerDensity],
    windows: Sequence[Tuple[int, int]],
    *,
    layers: Optional[Sequence[int]] = None,
    window_margin: int = 0,
) -> Dict[int, LayerDensity]:
    """Recompute a cached analysis for a subset of windows and layers.

    Density bounds and fill regions read only the layer's *wires*
    (never its fills), so a cached :func:`analyze_layout` result stays
    valid until wires change — and a wire change only perturbs the
    windows within spacing reach of the new geometry.  This is the
    incremental path the ECO flow and the fill service use: pass the
    cached per-layer analysis, the dirtied window keys, and the layer
    numbers whose wires changed; every (layer, window) pair outside
    that set is carried over untouched, so the result is bit-identical
    to a fresh global :func:`analyze_layout` of the updated layout.

    ``window_margin`` must match the value the cached analysis was
    built with (the engine's ``config.effective_margin``).  Input
    ``LayerDensity`` objects are never mutated; refreshed layers get
    fresh arrays and region dicts.
    """
    rules = layout.rules
    keys = sorted(set(windows))
    changed = set(layout.layer_numbers if layers is None else layers)
    out: Dict[int, LayerDensity] = {}
    refreshed_layers = 0
    for n in layout.layer_numbers:
        ld = cached[n]
        if n not in changed or not keys:
            out[n] = ld
            continue
        fresh = analyze_layer(layout.layer(n), grid, rules, window_margin, windows=keys)
        lower = ld.lower.copy()
        upper = ld.upper.copy()
        regions = dict(ld.fill_regions)
        for key in keys:
            lower[key] = fresh.lower[key]
            upper[key] = fresh.upper[key]
            regions[key] = fresh.fill_regions[key]
        refreshed_layers += 1
        out[n] = LayerDensity(n, lower, upper, regions)
    # One refresh = one count of the dirtied windows, however many
    # layers re-read them; the per-layer fan-out is its own metric.
    if refreshed_layers:
        obs.count("analysis.refreshed_windows", len(keys))
        obs.count("analysis.refreshed_layers", refreshed_layers)
    return out


def overlay_area(lower: Layer, upper: Layer) -> int:
    """Fill-induced overlay between two adjacent layers (§2.1).

    Counts the overlap between each layer's *fills* and the other
    layer's full metal (wires and fills); the fill-fill overlap region
    is common to both terms and must not be double counted.  This is
    one die-wide slab sweep per term, with no die clipping; the score
    reads :func:`overlay_map` instead, and the tests keep this as its
    oracle.
    """
    from ..geometry import intersection_area

    lo_fills, hi_fills = lower.fills, upper.fills
    fills_vs_wires = intersection_area(lo_fills, upper.wires)
    wires_vs_fills = intersection_area(lower.wires, hi_fills)
    fills_vs_fills = intersection_area(lo_fills, hi_fills)
    return fills_vs_wires + wires_vs_fills + fills_vs_fills


def overlay_map(lower: Layer, upper: Layer, grid: WindowGrid) -> np.ndarray:
    """Per-window fill-induced overlay area between two adjacent layers.

    Splits :func:`overlay_area` over the fixed dissection: each window
    is charged the part of the overlay region it contains, so overlay
    outside the grid's die is not counted.  The grid windows partition
    the die and area is additive over a partition, so when every fill
    lies inside the die, ``overlay_map(lo, hi, grid).sum() ==
    overlay_area(lo, hi)`` exactly — which makes the map usable as an
    *attribution*: the windows with the largest cells are the ones a
    regressed Overlay* score points at.
    """
    from ..geometry import intersection_area

    pairs = (
        (lower.fills, upper.wires),
        (lower.wires, upper.fills),
        (lower.fills, upper.fills),
    )
    out = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    for shapes_a, shapes_b in pairs:
        if not shapes_a or not shapes_b:
            continue
        index_a = _shape_index(shapes_a, grid.die)
        index_b = _shape_index(shapes_b, grid.die)
        for i, j, win in grid:
            hits_a = index_a.query_overlapping(win)
            if not hits_a:
                continue
            hits_b = index_b.query_overlapping(win)
            if not hits_b:
                continue
            clipped_a = [r.intersection(win) for r, _ in hits_a]
            clipped_b = [r.intersection(win) for r, _ in hits_b]
            out[i, j] += intersection_area(
                [c for c in clipped_a if c is not None],
                [c for c in clipped_b if c is not None],
            )
    return out


def fill_overlay_area(layout: Layout, grid: WindowGrid) -> Dict[Tuple[int, int], np.ndarray]:
    """Per-window overlay (:func:`overlay_map`) of every adjacent layer pair.

    Keyed by ``(lower, upper)`` layer number, in layer order.  Only
    overlay inside the grid's die counts; each map sums to the pair's
    :func:`overlay_area` when every fill lies inside the die.
    """
    return {
        (lo.number, hi.number): overlay_map(lo, hi, grid)
        for lo, hi in layout.adjacent_pairs()
    }
