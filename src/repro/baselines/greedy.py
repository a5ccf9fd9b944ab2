"""Greedy max-fill baseline.

A rule-based filler that stuffs every window with the largest legal
fill cells its free space admits, with no density planning and no
overlay awareness.  This is the "fill everything" strategy common in
quick production flows: few, large fills (excellent file-size score,
like the contest's 1st team) but the density map simply mirrors the
free-space map, so uniformity suffers — the signature visible in the
Table 3 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..core.candidates import grid_candidates
from ..core.config import FillConfig
from ..density.analysis import analyze_layer
from ..layout import Layout, WindowGrid

__all__ = ["GreedyReport", "greedy_fill"]


@dataclass
class GreedyReport:
    """Outcome of a greedy max-fill run."""

    num_fills: int
    seconds: float


def greedy_fill(
    layout: Layout,
    grid: WindowGrid,
    *,
    density_cap: Optional[float] = None,
) -> GreedyReport:
    """Fill ``layout`` in place, maximising density everywhere.

    ``density_cap`` optionally stops filling a window once its total
    density reaches the cap (some foundry decks cap metal density);
    ``None`` fills all free space.
    """
    with obs.span("baseline.greedy") as sp:
        rules = layout.rules
        config = FillConfig()
        margin = config.effective_margin(rules.min_spacing)
        num_fills = 0
        for layer in layout.layers:
            regions = analyze_layer(layer, grid, rules, margin).fill_regions
            for i, j, window in grid:
                cands = grid_candidates(regions[(i, j)], rules)
                if density_cap is None:
                    chosen = cands
                else:
                    aw = grid.window_area(i, j)
                    budget = density_cap * aw - layer.wire_area_in(window)
                    chosen = []
                    acc = 0
                    for cand in sorted(cands, key=lambda c: -c.area):
                        if acc >= budget:
                            break
                        chosen.append(cand)
                        acc += cand.area
                layer.add_fills(chosen)
                num_fills += len(chosen)
        sp.count("fills", num_fills)
    return GreedyReport(num_fills=num_fills, seconds=sp.seconds)
