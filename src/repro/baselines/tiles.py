"""Tile-based fill substrate shared by the baseline fillers.

Traditional flows (paper §1, refs. [4–6]) dissect each window into
``r x r`` tiles (Fig. 1) and reason about a scalar fill area per tile.
This module provides that substrate: per-tile free-space accounting and
the *realisation* step that turns a per-tile area budget into concrete
DRC-legal fill rectangles.

The realisation deliberately mirrors what tile-based tools do — many
small per-tile rectangles — because the resulting fill-count blow-up
(and hence file size) is exactly the drawback the paper's geometric
approach removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..density.analysis import analyze_layer
from ..geometry import Rect, rect_set_intersect
from ..layout import DrcRules, Layer, WindowGrid

__all__ = ["Tile", "TileGrid", "build_tile_grid", "realize_tile_fill"]


@dataclass
class Tile:
    """One tile of the fixed dissection: its box, free space, wire area."""

    window: Tuple[int, int]
    rect: Rect
    free: List[Rect]
    wire_area: int

    @property
    def free_area(self) -> int:
        return sum(r.area for r in self.free)

    @property
    def area(self) -> int:
        return self.rect.area


@dataclass
class TileGrid:
    """All tiles of one layer, plus lookup by window."""

    layer_number: int
    tiles_per_window: int  # r (window edge is divided into r tiles)
    tiles: List[Tile]

    def window_tiles(self, i: int, j: int) -> List[Tile]:
        return [t for t in self.tiles if t.window == (i, j)]


def build_tile_grid(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    r: int = 4,
) -> TileGrid:
    """Dissect every window of a layer into ``r x r`` tiles (Fig. 1).

    Free space per tile is the window's fill region clipped to the
    tile, so tile budgets can always be realised legally.
    """
    if r < 1:
        raise ValueError("tiles-per-window must be at least 1")
    regions = analyze_layer(layer, grid, rules).fill_regions
    margin = -(-rules.min_spacing // 2)
    tiles: List[Tile] = []
    for i, j, window in grid:
        region = regions[(i, j)]
        for tile_rect in grid.tiles(i, j, r):
            # Inset each tile by half the spacing rule so fills realised
            # independently in adjacent tiles stay legal across tile
            # (and window) boundaries.
            inner = tile_rect.shrunk(margin)
            free = (
                rect_set_intersect(region, [inner]) if inner is not None else []
            )
            wire_area = layer.wire_area_in(tile_rect)
            tiles.append(Tile((i, j), tile_rect, free, wire_area))
    return TileGrid(layer.number, r, tiles)


def realize_tile_fill(
    tile: Tile,
    target_area: float,
    rules: DrcRules,
) -> List[Rect]:
    """Place fills inside one tile totalling about ``target_area``.

    Free rectangles are consumed largest-first; inside each, fills are
    laid out as a grid of small cells (at most a quarter of the tile
    edge) at minimum spacing — the small-feature style of tile-based
    fillers.  Stops once the target is met.
    """
    if target_area <= 0:
        return []
    cell_cap = max(rules.min_width, tile.rect.min_side // 4)
    out: List[Rect] = []
    placed = 0
    sm = rules.min_spacing
    for free in sorted(tile.free, key=lambda r: -r.area):
        if placed >= target_area:
            break
        if free.width < rules.min_width or free.height < rules.min_width:
            continue
        cell_w = min(cell_cap, free.width, rules.max_fill_width)
        cell_h = min(cell_cap, free.height, rules.max_fill_height)
        if cell_w * cell_h < rules.min_area:
            # Grow the cell up to the free rect until the area rule holds.
            cell_w = min(free.width, rules.max_fill_width)
            cell_h = min(free.height, rules.max_fill_height)
            if cell_w * cell_h < rules.min_area:
                continue
        y = free.yl
        while y + cell_h <= free.yh and placed < target_area:
            x = free.xl
            while x + cell_w <= free.xh and placed < target_area:
                fill = Rect(x, y, x + cell_w, y + cell_h)
                if rules.is_legal_fill(fill):
                    out.append(fill)
                    placed += fill.area
                x += cell_w + sm
            y += cell_h + sm
    return out
