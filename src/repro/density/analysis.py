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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..contracts import check_density
from ..geometry import IntArray, boxes, rect_set_subtract, touching
from ..layout import DrcRules, Layer, Layout, WindowGrid
from .raster import (NO_REGION, clipped_area_map, covered_area_map,
                     raster_fill_regions)

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


def wire_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Wire density ``d_w(i, j)`` per window — the lower bound l(i, j)."""
    return _to_density(covered_area_map(layer.wire_boxes, grid), grid)


def fill_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Dummy-fill density per window: the sum of each fill's clipped area.

    Fills are disjoint by construction, so on a legal layout the sum is
    their covered area.  It stays a sum, not a union, because the
    streamed fill accounts its kept fills with the same
    :func:`clipped_area_map` (the bucket pass of
    :mod:`repro.core.stream`); a union would make in-memory and
    streamed ECOs diverge on inputs whose fills overlap.
    """
    return _to_density(clipped_area_map(layer.fill_boxes, grid), grid)


def metal_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Total layout density d(i, j): wires plus fills, each point once."""
    shapes = np.concatenate((layer.wire_boxes, layer.fill_boxes))
    return _to_density(covered_area_map(shapes, grid), grid)


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


def _usable_areas(box: IntArray, rules: DrcRules) -> IntArray:
    """Each row's area, or 0 where the rect cannot host a legal fill."""
    width = box[:, 2] - box[:, 0]
    height = box[:, 3] - box[:, 1]
    area = width * height
    legal = (width >= rules.min_width) & (height >= rules.min_width) & (area >= rules.min_area)
    return np.where(legal, area, 0)


def usable_fill_area(region: IntArray, rules: DrcRules) -> int:
    """Area of the region pieces a legal fill could actually occupy.

    ``region`` is an ``(n, 4)`` int64 box array.  Rectangles narrower
    than the minimum width in either dimension can never host a
    DRC-clean fill, so the density upper bound must not count them.
    """
    return int(_usable_areas(region, rules).sum())


def _usable_area_map(
    regions: Dict[Tuple[int, int], IntArray], rules: DrcRules, shape: Tuple[int, int]
) -> np.ndarray:
    """:func:`usable_fill_area` of every window's region, as a ``shape`` int64 map."""
    out = np.zeros(shape, dtype=np.int64)
    if regions:
        keys = np.array(list(regions), dtype=np.int64).reshape(-1, 2)
        owner = np.repeat(keys, [len(region) for region in regions.values()], axis=0)
        areas = _usable_areas(np.concatenate(list(regions.values())), rules)
        np.add.at(out, (owner[:, 0], owner[:, 1]), areas)
    return out


def _scanline_fill_regions(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int,
    windows: Optional[Sequence[Tuple[int, int]]],
) -> Dict[Tuple[int, int], IntArray]:
    """Feasible fill region per window, one scanline subtraction each.

    The region is the window, inset by the window margin, minus every
    wire bloated by the minimum spacing: ``rect_set_subtract`` over
    the wires whose closed box touches the inset window grown by the
    spacing (:func:`~repro.geometry.touching`), in wire order.  Each
    rect list becomes a read-only box array, as the raster cutter
    returns it.  ``windows`` restricts the output to those windows.
    """
    wires, box = layer.wires, layer.wire_boxes
    regions: Dict[Tuple[int, int], IntArray] = {}
    for i, j in windows if windows is not None else [(i, j) for i, j, _ in grid]:
        win = grid.window(i, j)
        inner = win.shrunk(window_margin) if window_margin else win
        if inner is None:
            regions[(i, j)] = NO_REGION
            continue
        nearby = touching(box, inner.expanded(rules.min_spacing))
        bloated = [wires[k].expanded(rules.min_spacing) for k in nearby.tolist()]
        rects = rect_set_subtract([inner], bloated)
        region = boxes(rects, len(rects))
        region.flags.writeable = False
        regions[(i, j)] = region
    return regions


@dataclass
class LayerDensity:
    """Density-analysis product for one layer.

    ``lower`` is ``l(i, j)`` (wire density) and ``upper`` is ``u(i, j)``
    (wire density plus usable free space) — the bounds that drive target
    density planning (§3.1, Eqn. (5)).  ``fill_regions`` is fr(l) per
    window: the window, inset by the window margin, minus every wire
    bloated by the minimum spacing — the disjoint rectangles where a
    fill may legally sit, as a read-only ``(k, 4)`` int64 box array of
    ``(xl, yl, xh, yh)`` rows in canonical order (``(0, 4)`` for a
    window with no free space).
    """

    layer_number: int
    lower: np.ndarray
    upper: np.ndarray
    fill_regions: Dict[Tuple[int, int], IntArray]

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
    """The fill-region cutter :func:`analyze_layer` runs when none is named.

    The raster cutter, whatever the layer and the window set: it was
    measured no slower than the scanline cutter on every whole die,
    every stream band and the partial-column ECO refresh, where the
    scanline's per-window scan of every wire costs more than the
    raster's window tiles (docs/PERFORMANCE.md, "Raster kernel").  The
    two cutters return the same regions, so the choice only moves
    the clock; tests pin this function to run one cutter through whole
    flows.
    """
    return "raster"


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

    ``lower`` is the covered wire area (:func:`covered_area_map` of the
    layer's wire boxes) over the window area, and ``upper`` adds the
    usable part of the fill
    region (:func:`usable_fill_area`, one array pass over every
    window's rects), capped at 1.  ``kernel`` picks only the
    fill-region cutter, and both cutters return the same box arrays:
    ``"rect"`` is the scanline cutter (one ``rect_set_subtract``
    per window), ``"raster"`` cuts every window of a column in one
    tile pass (:func:`~repro.density.raster.raster_fill_regions`).
    ``kernel=None`` runs the one :func:`_choose_kernel` picks, the
    raster cutter; naming one is for parity tests and per-kernel
    measurements.  The span counters ``analysis.rect_layers`` and
    ``analysis.raster_layers`` record which one ran.

    ``windows`` restricts the analysis to those window keys: only their
    ``lower``/``upper`` entries are computed (the rest stay zero) and
    only they get a fill region.  The layer then needs only the wires
    within spacing reach of those windows.
    """
    if (kernel or _choose_kernel(layer, grid, windows)) == "raster":
        obs.count("analysis.raster_layers")
        regions = raster_fill_regions(layer, grid, rules, window_margin, windows)
    else:
        obs.count("analysis.rect_layers")
        regions = _scanline_fill_regions(layer, grid, rules, window_margin, windows)
    aw = window_area_map(grid)
    lower = covered_area_map(layer.wire_boxes, grid, windows=windows) / aw
    upper = np.minimum(1.0, lower + _usable_area_map(regions, rules, aw.shape) / aw)
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

    ``kernel`` is passed to every :func:`analyze_layer` call; it picks
    only the fill-region cutter.  ``windows`` restricts every
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
    outside the grid's die is not counted.  Each of the three terms is
    ``|A ∩ B| = |A| + |B| - |A ∪ B|`` per window, three covered-area
    maps (:func:`covered_area_map`) in exact int64; the four single-set
    maps serve every term.  The grid windows partition the die and area
    is additive over a partition, so when every fill lies inside the
    die, ``overlay_map(lo, hi, grid).sum() == overlay_area(lo, hi)``
    exactly — which makes the map usable as an *attribution*: the
    windows with the largest cells are the ones a regressed Overlay*
    score points at.
    """
    lo_wires, lo_fills, hi_wires, hi_fills = (
        (box, covered_area_map(box, grid))
        for box in (lower.wire_boxes, lower.fill_boxes, upper.wire_boxes, upper.fill_boxes)
    )
    out = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    for (a, area_a), (b, area_b) in (
        (lo_fills, hi_wires),
        (lo_wires, hi_fills),
        (lo_fills, hi_fills),
    ):
        if len(a) and len(b):
            out += area_a + area_b - covered_area_map(np.concatenate((a, b)), grid)
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
