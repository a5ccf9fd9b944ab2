"""Monte-Carlo iterated fill baseline (paper §1, refs. [8, 9]).

Chen, Kahng, Robins & Zelikovsky's Monte-Carlo layout density control:
repeatedly pick the window with the largest density deficit and drop a
randomly positioned, randomly sized fill into its free space, until
every window reaches the target or runs out of room.

The paper cites this family as "still lacking in either performance or
speed"; both weaknesses are visible here — fill counts land between
the tile-LP and geometric approaches, and the one-fill-per-iteration
loop is slow.  It stands in for the contest's remaining top team in the
Table 3 reproduction (DESIGN.md §3).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..density.analysis import analyze_layer, wire_density_map
from ..geometry import Rect, rects_of
from ..layout import DrcRules, Layout, WindowGrid

__all__ = ["MonteCarloReport", "monte_carlo_fill"]


@dataclass
class MonteCarloReport:
    """Outcome of a Monte-Carlo fill run."""

    num_fills: int
    iterations: int
    seconds: float


def _random_fill_in(
    region: List[Rect], rules: DrcRules, rng: random.Random
) -> Optional[Tuple[int, Rect]]:
    """Sample a legal fill in the region; returns (region index, rect).

    Chooses a free rectangle weighted by area, then a uniformly random
    legal size and position inside it.  ``None`` when no free rectangle
    can host a legal fill.
    """
    hosts = [
        (k, r)
        for k, r in enumerate(region)
        if r.width >= rules.min_width and r.height >= rules.min_width
        and r.area >= rules.min_area
    ]
    if not hosts:
        return None
    weights = [r.area for _, r in hosts]
    k, host = rng.choices(hosts, weights=weights, k=1)[0]
    max_w = min(rules.max_fill_width, host.width)
    max_h = min(rules.max_fill_height, host.height)
    for _ in range(8):  # a few attempts to satisfy the area rule
        w = rng.randint(rules.min_width, max_w)
        h = rng.randint(rules.min_width, max_h)
        if w * h < rules.min_area:
            continue
        x = rng.randint(host.xl, host.xh - w)
        y = rng.randint(host.yl, host.yh - h)
        return k, Rect(x, y, x + w, y + h)
    # Fall back to the largest legal fill in this host.
    w, h = max_w, max_h
    if w * h < rules.min_area:
        return None
    return k, Rect(host.xl, host.yl, host.xl + w, host.yl + h)


def monte_carlo_fill(
    layout: Layout,
    grid: WindowGrid,
    *,
    seed: int = 2014,
    max_iterations: Optional[int] = None,
    target_density: Optional[float] = None,
) -> MonteCarloReport:
    """Fill ``layout`` in place by Monte-Carlo iterated filling.

    ``target_density`` defaults to each layer's largest window wire
    density (the paper's Case I target).  The free-space bookkeeping
    carves every inserted fill (bloated by the spacing rule) out of the
    window's region, so the output is DRC-clean by construction.
    """
    with obs.span("baseline.monte_carlo") as sp:
        rng = random.Random(seed)
        rules = layout.rules
        margin = -(-rules.min_spacing // 2)
        num_fills = 0
        iterations = 0
        if max_iterations is None:
            max_iterations = 40 * grid.num_windows * layout.num_layers

        for layer in layout.layers:
            wire_density = wire_density_map(layer, grid)
            target = (
                float(wire_density.max())
                if target_density is None
                else target_density
            )
            regions = {
                key: rects_of(region)
                for key, region in analyze_layer(layer, grid, rules, margin).fill_regions.items()
            }
            # Deficit priority queue: (-deficit, window).
            deficit: Dict[Tuple[int, int], float] = {}
            heap: List[Tuple[float, Tuple[int, int]]] = []
            for i, j, _ in grid:
                d = (target - float(wire_density[i, j])) * grid.window_area(i, j)
                deficit[(i, j)] = d
                if d > 0:
                    heapq.heappush(heap, (-d, (i, j)))
            exhausted = set()
            while heap and iterations < max_iterations:
                neg_d, key = heapq.heappop(heap)
                if -neg_d != deficit[key] or key in exhausted:
                    continue  # stale entry
                if deficit[key] <= 0:
                    continue
                iterations += 1
                sample = _random_fill_in(regions[key], rules, rng)
                if sample is None:
                    exhausted.add(key)
                    continue
                k, fill = sample
                layer.add_fill(fill)
                num_fills += 1
                deficit[key] -= fill.area
                # Carve the fill (bloated by spacing) out of the free space —
                # out of every free rectangle, since region pieces can abut
                # and the fill's spacing halo may reach a neighbouring piece.
                blocked = fill.expanded(rules.min_spacing)
                regions[key] = [
                    piece
                    for host in regions[key]
                    for piece in host.subtract(blocked)
                ]
                if deficit[key] > 0:
                    heapq.heappush(heap, (-deficit[key], key))
        sp.count("fills", num_fills)
        sp.count("iterations", iterations)
    return MonteCarloReport(
        num_fills=num_fills,
        iterations=iterations,
        seconds=sp.seconds,
    )
