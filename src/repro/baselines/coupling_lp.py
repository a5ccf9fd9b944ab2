"""Coupling-constrained fill baseline (refs. [11, 12]).

Chen, Gupta & Kahng's *performance-impact limited* fill (DAC'03 [11])
and Xiang et al.'s coupling-constrained formulation (ISPD'07 [12]) are
the prior art the paper's §1 credits with first handling coupling:
fill is inserted **per slot**, maximising density subject to a cap on
the total fill-to-wire coupling each window may incur.

Per window and layer the problem is the LP

    min  Σ_s coupling_s · x_s
    s.t. Σ_s area_s · x_s ≥ need_w          (density demand)
         Σ_s coupling_s · x_s ≤ C_w         (coupling budget)
         0 ≤ x_s ≤ 1,

where ``coupling_s`` is slot ``s``'s overlap with the adjacent layers'
wires.  With a single packing constraint the LP is a fractional
knapsack: sorting slots by coupling-per-area and filling greedily *is*
the exact optimum (the classical argument; the tests cross-check
against scipy's LP solver).  Slots are realised whole except the one
marginal slot, which is shrunk to its fractional share.

Compared against the paper's engine this baseline controls coupling
but, like all slot methods, plans no global density target — its
uniformity scores trail the geometric engine's, which is precisely the
gap the paper's contribution closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.candidates import grid_candidates
from ..core.config import FillConfig
from ..density.analysis import analyze_layer, wire_density_map
from ..geometry import GridIndex, Rect
from ..layout import DrcRules, Layout, WindowGrid

__all__ = ["CouplingLpReport", "coupling_lp_fill", "solve_slot_lp"]


@dataclass
class CouplingLpReport:
    """Outcome of a coupling-constrained fill run."""

    num_fills: int
    total_coupling: int
    budget_limited_windows: int
    seconds: float


def solve_slot_lp(
    slots: Sequence[Tuple[int, int]],
    need: float,
    coupling_budget: float,
) -> List[float]:
    """Exact solution of the per-window slot LP.

    ``slots`` are ``(area, coupling)`` pairs; returns the fractional
    selection ``x_s`` in [0, 1].  Zero-coupling slots are taken first
    (they relax nothing); the rest are taken in increasing
    coupling-per-area order until the density demand is met or the
    coupling budget is exhausted — the fractional-knapsack optimum.
    """
    x = [0.0] * len(slots)
    remaining_need = max(0.0, need)
    remaining_budget = max(0.0, coupling_budget)
    order = sorted(
        range(len(slots)),
        key=lambda s: (slots[s][1] / max(1, slots[s][0]), -slots[s][0]),
    )
    for s in order:
        if remaining_need <= 0:
            break
        area, coupling = slots[s]
        if area <= 0:
            continue
        frac = min(1.0, remaining_need / area)
        if coupling > 0:
            if remaining_budget <= 0:
                break
            frac = min(frac, remaining_budget / coupling)
        x[s] = frac
        remaining_need -= frac * area
        remaining_budget -= frac * coupling
    return x


def _shrink_to_fraction(rect: Rect, fraction: float, rules: DrcRules) -> Optional[Rect]:
    """Shrink a slot to ~``fraction`` of its area (width-wise)."""
    if fraction >= 1.0:
        return rect
    min_w = rules.min_width_for_height(rect.height)
    new_w = max(min_w, int(rect.width * fraction))
    if new_w > rect.width:
        return None
    shrunk = Rect(rect.xl, rect.yl, rect.xl + new_w, rect.yh)
    return shrunk if rules.is_legal_fill(shrunk) else None


def coupling_lp_fill(
    layout: Layout,
    grid: WindowGrid,
    *,
    coupling_fraction: float = 0.10,
) -> CouplingLpReport:
    """Fill ``layout`` in place with the coupling-constrained baseline.

    ``coupling_fraction`` sets each window's coupling budget as a
    fraction of the window area (the per-net capacitance budgets of
    [11], aggregated to the window level).
    """
    with obs.span("baseline.coupling_lp") as sp:
        rules = layout.rules
        config = FillConfig()
        margin = config.effective_margin(rules.min_spacing)
        num_fills = 0
        total_coupling = 0
        budget_limited = 0

        wire_indexes: Dict[int, GridIndex[int]] = {}
        for layer in layout.layers:
            idx: GridIndex[int] = GridIndex(
                max(64, min(layout.die.width, layout.die.height) // 16)
            )
            for k, w in enumerate(layer.wires):
                idx.insert(w, k)
            wire_indexes[layer.number] = idx

        for layer in layout.layers:
            density = wire_density_map(layer, grid)
            target = float(density.max())
            regions = analyze_layer(layer, grid, rules, margin).fill_regions
            for i, j, window in grid:
                aw = grid.window_area(i, j)
                need = max(0.0, (target - float(density[i, j])) * aw)
                if need <= 0:
                    continue
                cands = grid_candidates(regions[(i, j)], rules, anchor=window)
                if not cands:
                    continue
                # Slot coupling: overlap with adjacent layers' wires.
                slots: List[Tuple[int, int]] = []
                for cand in cands:
                    coupling = 0
                    for adj in (layer.number - 1, layer.number + 1):
                        if adj in wire_indexes:
                            for rect, _ in wire_indexes[adj].query_overlapping(cand):
                                coupling += cand.intersection_area(rect)
                    slots.append((cand.area, coupling))
                budget = coupling_fraction * aw
                x = solve_slot_lp(slots, need, budget)
                spent = sum(frac * c for frac, (_, c) in zip(x, slots))
                delivered = sum(frac * a for frac, (a, _) in zip(x, slots))
                if delivered < need - 1e-6 and spent >= budget - 1e-6:
                    budget_limited += 1
                for cand, frac, (area, coupling) in zip(cands, x, slots):
                    if frac <= 0:
                        continue
                    fill = _shrink_to_fraction(cand, frac, rules)
                    if fill is None:
                        continue
                    layer.add_fill(fill)
                    num_fills += 1
                    total_coupling += int(frac * coupling)
        sp.count("fills", num_fills)
        sp.count("budget_limited_windows", budget_limited)
    return CouplingLpReport(
        num_fills=num_fills,
        total_coupling=total_coupling,
        budget_limited_windows=budget_limited,
        seconds=sp.seconds,
    )
