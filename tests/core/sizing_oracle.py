"""Scalar oracle of fill sizing: one window at a time, one ``Rect`` at a time.

This is the per-window implementation ``repro.core.sizing`` replaced
with column batches of int64 arrays.  Every window pass builds its
:class:`~repro.netflow.DifferentialLP` one ``add_variable`` at a time
and solves it whole: ``solver="mcf-ssp"`` through the scalar closed
forms of :mod:`tests.netflow.pair_oracle`, so nothing here shares the
library's vectorized closed form.  The tests hold the library's
``size_window`` and ``size_fills`` to this module's: equal fills, in
equal order, and equal :class:`~repro.core.SizingStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.contracts import check_drc_params
from repro.core import FillConfig, SizingStats
from repro.core.candidates import CandidatePlan, _wire_indexes_for
from repro.geometry import GridIndex, Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.netflow import DifferentialLP, LPInfeasibleError, solve_linprog

from ..netflow.pair_oracle import solve_components

WindowKey = Tuple[int, int]


def _transpose(rect: Rect) -> Rect:
    """Swap the axes of a rectangle (vertical pass = transposed horizontal)."""
    return Rect(rect.yl, rect.xl, rect.yh, rect.xh)


@dataclass
class _Fill:
    """Mutable working copy of one fill during sizing."""

    layer: int
    rect: Rect
    alive: bool = True


def _solver_fn(solver: str) -> Callable[[DifferentialLP], object]:
    if solver == "mcf-ssp":
        return solve_components
    if solver == "lp":
        return solve_linprog
    raise ValueError(f"unknown solver {solver!r}")


# ----------------------------------------------------------------------
# pre-legalisation: drop fills whose spacing can never be repaired
# ----------------------------------------------------------------------
def _achievable_gap_x(a: Rect, b: Rect, rules: DrcRules) -> int:
    """Largest horizontal gap reachable by shrinking ``a`` and ``b``."""
    left, right = (a, b) if a.xl <= b.xl else (b, a)
    min_w_left = rules.min_width_for_height(left.height)
    min_w_right = rules.min_width_for_height(right.height)
    return (right.xh - min_w_right) - (left.xl + min_w_left)


def _prelegalize(fills: List[_Fill], rules: DrcRules) -> int:
    """Drop the smaller fill of every unrepairable close pair.

    A pair is unrepairable when neither axis can reach the minimum
    spacing even if both fills shrink to their minimum legal size.
    Returns the number of dropped fills.
    """
    dropped, _ = _prelegalize_and_pairs(fills, rules)
    return dropped


def _prelegalize_and_pairs(
    fills: List[_Fill], rules: DrcRules
) -> Tuple[int, Dict[int, List[Tuple[int, int]]]]:
    """Pre-legalise and collect the surviving close pairs in one scan.

    Fills only ever shrink, so every gap measure is monotone
    non-decreasing over the passes: a pair beyond the minimum spacing
    now can never come within it later.  The close pairs of the
    surviving (post-drop) fills are therefore a valid superset for
    every subsequent pass and for the final spacing sweep — in either
    axis orientation, since transposition preserves distances.  The
    pairs come out in the exact order a fresh per-pass index scan over
    the survivors would visit them (lexicographic by survivor
    position: survivors keep their relative order, and the index
    returns hits in insertion order), because the constraint order
    feeds the flow network's arc order and must not change.
    """
    dropped = 0
    sm = rules.min_spacing
    by_layer: Dict[int, List[Tuple[int, _Fill]]] = {}
    for g, f in enumerate(fills):
        by_layer.setdefault(f.layer, []).append((g, f))
    raw_pairs: List[Tuple[int, int]] = []
    for layer_fills in by_layer.values():
        index: GridIndex[Tuple[int, _Fill]] = GridIndex(
            max(64, rules.max_fill_width + sm)
        )
        for entry in layer_fills:
            index.insert(entry[1].rect, entry)
        seen = set()
        for g, f in layer_fills:
            if not f.alive:
                continue
            for rect, (h, other) in index.query_within(f.rect, sm):
                if other is f or not other.alive or not f.alive:
                    continue
                if f.rect.euclidean_gap(other.rect) >= sm:
                    continue
                key = (g, h) if g < h else (h, g)
                if key not in seen:
                    seen.add(key)
                    raw_pairs.append(key)
                if f.rect.overlaps(other.rect):
                    # Same-layer overlap: no pass owns a repair axis for
                    # it, so resolve it here outright.
                    victim = f if f.rect.area <= other.rect.area else other
                    victim.alive = False
                    dropped += 1
                    continue
                gap_x = _achievable_gap_x(f.rect, other.rect, rules)
                gap_y = _achievable_gap_x(
                    _transpose(f.rect), _transpose(other.rect), rules
                )
                if gap_x < sm and gap_y < sm:
                    victim = f if f.rect.area <= other.rect.area else other
                    victim.alive = False
                    dropped += 1
    # Map the surviving pairs onto positions in the post-drop live
    # list (the variable numbering every pass uses).
    live_pos: Dict[int, int] = {}
    pos = 0
    for g, f in enumerate(fills):
        if f.alive:
            live_pos[g] = pos
            pos += 1
    close_pairs: Dict[int, List[Tuple[int, int]]] = {
        layer: [] for layer in by_layer
    }
    for g, h in raw_pairs:
        if fills[g].alive and fills[h].alive:
            close_pairs[fills[g].layer].append((live_pos[g], live_pos[h]))
    return dropped, close_pairs


# ----------------------------------------------------------------------
# one directional pass (horizontal; the vertical pass transposes)
# ----------------------------------------------------------------------
def _overlay_slopes(
    fill: Rect, neighbors: Sequence[Rect]
) -> Tuple[int, int]:
    """Marginal overlay height at the left and right edges of ``fill``.

    The slope at an edge is the total neighbor height whose overlap
    width would shrink if that edge moved inward — the left derivative,
    valid for the shrink-only trust region.
    """
    slope_left = 0
    slope_right = 0
    for s in neighbors:
        h_ov = min(fill.yh, s.yh) - max(fill.yl, s.yl)
        if h_ov <= 0:
            continue
        w_ov = min(fill.xh, s.xh) - max(fill.xl, s.xl)
        if w_ov <= 0:
            continue
        if fill.xh <= s.xh:
            slope_right += h_ov
        if fill.xl >= s.xl:
            slope_left += h_ov
    return slope_left, slope_right


#: per-layer neighbor wire coordinates, prepacked as int64 arrays
#: (xl, xh, yl, yh) — built once per window per axis by
#: :func:`size_window` and reused across every pass of that axis.
_WireArrays = Mapping[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _pack_rects(rects: Sequence[Rect]) -> Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray
]:
    """Coordinate arrays of a rect list (the slope-matrix operands)."""
    m = len(rects)
    return (
        np.fromiter((s.xl for s in rects), np.int64, m),
        np.fromiter((s.xh for s in rects), np.int64, m),
        np.fromiter((s.yl for s in rects), np.int64, m),
        np.fromiter((s.yh for s in rects), np.int64, m),
    )


def _batch_overlay_slopes(
    live: Sequence["_Fill"],
    wire_arrays: _WireArrays,
    fill_neighbors: Mapping[int, Sequence[Rect]],
) -> List[Tuple[int, int]]:
    """:func:`_overlay_slopes` for every live fill at once.

    One fills x neighbors coordinate matrix per layer replaces the
    per-fill Python scan over the neighbor list; the summed int64
    heights are the exact integers the scalar routine accumulates
    (which keeps :func:`_overlay_slopes` as its oracle in the tests).
    The neighbor set is split into frozen wires (prepacked arrays,
    shared by all passes of an axis) and the adjacent layers' live
    fills (repacked per pass, since they shrink); the sums are
    order-independent, so the split changes no value.
    """
    out: List[Tuple[int, int]] = [(0, 0)] * len(live)
    by_layer: Dict[int, List[int]] = {}
    for k, f in enumerate(live):
        by_layer.setdefault(f.layer, []).append(k)
    for layer, idxs in by_layer.items():
        wires = wire_arrays.get(layer)
        fill_neigh = fill_neighbors.get(layer, ())
        if fill_neigh:
            fxl_n, fxh_n, fyl_n, fyh_n = _pack_rects(fill_neigh)
            if wires is not None and len(wires[0]):
                nxl = np.concatenate([wires[0], fxl_n])
                nxh = np.concatenate([wires[1], fxh_n])
                nyl = np.concatenate([wires[2], fyl_n])
                nyh = np.concatenate([wires[3], fyh_n])
            else:
                nxl, nxh, nyl, nyh = fxl_n, fxh_n, fyl_n, fyh_n
        elif wires is not None and len(wires[0]):
            nxl, nxh, nyl, nyh = wires
        else:
            continue
        n = len(idxs)
        fxl = np.fromiter((live[k].rect.xl for k in idxs), np.int64, n)
        fxh = np.fromiter((live[k].rect.xh for k in idxs), np.int64, n)
        fyl = np.fromiter((live[k].rect.yl for k in idxs), np.int64, n)
        fyh = np.fromiter((live[k].rect.yh for k in idxs), np.int64, n)
        h_ov = np.minimum(fyh[:, None], nyh[None, :]) - np.maximum(
            fyl[:, None], nyl[None, :]
        )
        w_ov = np.minimum(fxh[:, None], nxh[None, :]) - np.maximum(
            fxl[:, None], nxl[None, :]
        )
        height = np.where((h_ov > 0) & (w_ov > 0), h_ov, 0)
        right = (height * (fxh[:, None] <= nxh[None, :])).sum(axis=1)
        left = (height * (fxl[:, None] >= nxl[None, :])).sum(axis=1)
        for pos, k in enumerate(idxs):
            out[k] = (int(left[pos]), int(right[pos]))
    return out


def _horizontal_pass(
    fills: List[_Fill],
    wire_arrays: _WireArrays,
    fill_neighbors: Mapping[int, Sequence[Rect]],
    close_pairs: Mapping[int, Sequence[Tuple[int, int]]],
    excess_area: Mapping[int, float],
    layer_height_sum: Mapping[int, int],
    rules: DrcRules,
    config: FillConfig,
    solve: Callable[[DifferentialLP], object],
    stats: SizingStats,
) -> bool:
    """One Eqn. (14) pass over the x coordinates of all live fills.

    Returns whether any fill coordinate actually moved — the signal
    :func:`size_window` uses to stop iterating once a whole x+y round
    is a fixed point (every later round would see identical inputs and
    produce the identical no-op solution).
    """
    live = [f for f in fills if f.alive]
    if not live:
        return False
    step = config.effective_step(rules.max_fill_width, rules.max_fill_height)
    lp = DifferentialLP()
    var_lo: List[int] = []
    var_hi: List[int] = []

    # Per-layer density shrink budget ("reducing the shrinking steps").
    budget: Dict[int, int] = {}
    for layer, excess in excess_area.items():
        if excess > 0:
            total_h = max(1, layer_height_sum.get(layer, 1))
            budget[layer] = max(1, min(step, int(-(-excess // total_h))))

    slopes = _batch_overlay_slopes(live, wire_arrays, fill_neighbors)
    trivial = True
    for k, f in enumerate(live):
        r = f.rect
        h0 = r.height
        min_w = rules.min_width_for_height(h0)
        excess = excess_area.get(f.layer, 0.0)
        sign = 1 if excess > 0 else -1
        move = budget.get(f.layer, step) if sign > 0 else step
        sl, sr = slopes[k]
        eta = config.eta
        # Coefficients are doubled and biased by one unit toward keeping
        # the current size: when the density loss of shrinking exactly
        # cancels the overlay gain (a fill fully covered by neighbor
        # metal, s·h0 + η·slope == 0) the LP must not resolve the tie by
        # shrinking, or covered fills erode to nothing over the passes.
        c_xl = int(round(2 * (-sign * h0 - eta * sl))) + 1
        c_xh = int(round(2 * (sign * h0 + eta * sr))) - 1
        # Shrink-only trust region: xl may move up, xh down, each by at
        # most `move`, never tighter than the minimum width allows.
        ub_xl = max(r.xl, min(r.xl + move, r.xh - min_w))
        lb_xh = min(r.xh, max(r.xh - move, r.xl + min_w))
        i_xl = lp.add_variable(c_xl, r.xl, ub_xl)
        i_xh = lp.add_variable(c_xh, lb_xh, r.xh)
        # Eqn. (12): xh - xl >= max(wm, am/h0).
        lp.add_constraint(i_xh, i_xl, min_w)
        var_lo.append(i_xl)
        var_hi.append(i_xh)
        if c_xl <= 0 or c_xh >= 0:
            trivial = False

    # Eqn. (13): spacing constraints for close pairs, per layer.  The
    # pair lists were computed once per window (`_prelegalize_and_pairs`)
    # and only the current-geometry gap needs re-checking here.
    for pairs in close_pairs.values():
        for k, m in pairs:
            fk = live[k].rect
            fm = live[m].rect
            if fk.euclidean_gap(fm) >= rules.min_spacing:
                continue
            # Repair along the axis where the pair does NOT overlap:
            # a pair stacked with overlapping x-spans separates
            # naturally in y (the transposed pass), and forcing an
            # x-separation instead would carve a whole fill width
            # out of both fills.
            x_overlap = min(fk.xh, fm.xh) - max(fk.xl, fm.xl)
            if x_overlap > 0:
                continue  # the vertical pass owns this pair
            if fk.gap_y(fm) > 0 and _achievable_gap_x(fk, fm, rules) < rules.min_spacing:
                continue  # diagonal pair, only repairable in y
            left, right = (k, m) if fk.xl <= fm.xl else (m, k)
            # x_l(right) - x_h(left) >= sm; widen the trust region of
            # the two variables so the repair is feasible this pass.
            need = rules.min_spacing - (live[right].rect.xl - live[left].rect.xh)
            if need > 0:
                _widen_for_repair(
                    lp, var_hi[left], need, rules, live[left].rect
                )
                _widen_for_repair_up(
                    lp, var_lo[right], need, rules, live[right].rect
                )
            lp.add_constraint(var_lo[right], var_hi[left], rules.min_spacing)

    if trivial and lp.num_constraints == len(live):
        # Every cost pair is (positive, negative) — each x_lo's unique
        # optimum is its lower bound (the current left edge) and each
        # x_hi's its upper bound (the current right edge) — and with no
        # spacing constraints every component is one fill whose width
        # constraint already holds at those bounds.  The solver would
        # return the current coordinates verbatim; skip it.
        return False

    stats.lp_solves += 1
    stats.variables += lp.num_variables
    stats.constraints += lp.num_constraints
    obs.metrics.counter("sizing.lp_solves").inc()
    obs.metrics.histogram("sizing.lp.variables").observe(lp.num_variables)
    obs.metrics.histogram("sizing.lp.constraints").observe(lp.num_constraints)
    try:
        solution = solve(lp)
    except LPInfeasibleError:
        # Extremely rare residue of diagonal pairs; keep current sizes —
        # the vertical pass or the final cleanup resolves the conflict.
        return False
    x = list(solution.x)
    changed = False
    for k, f in enumerate(live):
        r = f.rect
        new_xl = x[var_lo[k]]
        new_xh = x[var_hi[k]]
        if new_xl != r.xl or new_xh != r.xh:
            f.rect = Rect(new_xl, r.yl, new_xh, r.yh)
            changed = True
    return changed


def _widen_for_repair(
    lp: DifferentialLP, var_hi: int, need: int, rules: DrcRules, rect: Rect
) -> None:
    """Lower the trust bound of a left fill's right edge by ``need``."""
    min_w = rules.min_width_for_height(rect.height)
    lp.lowers[var_hi] = min(lp.lowers[var_hi], max(rect.xl + min_w, rect.xh - need))


def _widen_for_repair_up(
    lp: DifferentialLP, var_lo: int, need: int, rules: DrcRules, rect: Rect
) -> None:
    """Raise the trust bound of a right fill's left edge by ``need``."""
    min_w = rules.min_width_for_height(rect.height)
    lp.uppers[var_lo] = max(lp.uppers[var_lo], min(rect.xh - min_w, rect.xl + need))


# ----------------------------------------------------------------------
# one window at a time
# ----------------------------------------------------------------------
def size_window(
    window: Rect,
    candidates: Mapping[int, Sequence[Rect]],
    wires_nearby: Mapping[int, Sequence[Rect]],
    target_fill_area: Mapping[int, float],
    rules: DrcRules,
    config: Optional[FillConfig] = None,
) -> Tuple[Dict[int, List[Rect]], SizingStats]:
    """Size the candidate fills of one window (Eqn. (9) relaxation).

    ``wires_nearby`` maps each layer to its wire rectangles clipped
    around the window (used for cross-layer overlay);
    ``target_fill_area`` maps each layer to the fill area (dbu²) the
    density plan asks of this window — ``dt(l) · aw`` of Eqn. (9b).
    Returns the final fills per layer plus solver statistics.
    """
    if config is None:
        config = FillConfig()
    stats = SizingStats(windows=1)
    fills: List[_Fill] = [
        _Fill(layer, rect)
        for layer, rects in sorted(candidates.items())
        for rect in rects
    ]
    # The live-fill list is stable across all passes (fills die only in
    # pre-legalisation here and in the post-pass cull below), so the
    # close-pair positions stay valid for the whole iteration loop.
    dropped, close_pairs = _prelegalize_and_pairs(fills, rules)
    stats.dropped_fills += dropped
    live0 = [f for f in fills if f.alive]
    solve = _solver_fn(config.solver)
    layer_numbers = sorted(candidates.keys())

    # Cross-layer neighbor *wires*, frozen for the whole window: packed
    # into coordinate arrays once per axis and reused by every pass.
    # Each Eqn. (9c) overlay term ov(l, l+1) must be priced exactly
    # once: fill-vs-wire overlay is charged to the fill's own layer,
    # while fill-vs-fill overlay is charged to the even layer of the
    # pair only (the layer whose candidates Alg. 1 chose against the
    # odd layers).  Charging both sides would double η and make
    # stacked layers shrink-chase each other.
    wire_arrays_by_axis: Dict[str, Dict[int, Tuple[np.ndarray, ...]]] = {}
    for axis in ("x", "y"):
        per_layer: Dict[int, Tuple[np.ndarray, ...]] = {}
        for layer in layer_numbers:
            wires: List[Rect] = []
            for adj in (layer - 1, layer + 1):
                if adj in candidates or adj in wires_nearby:
                    wires.extend(wires_nearby.get(adj, ()))
            if axis == "y":
                wires = [_transpose(w) for w in wires]
            per_layer[layer] = _pack_rects(wires)
        wire_arrays_by_axis[axis] = per_layer

    for _ in range(config.sizing_iterations):
        iteration_changed = False
        for axis in ("x", "y"):
            live = [f for f in fills if f.alive]
            if not live:
                break
            if axis == "y":
                for f in live:
                    f.rect = _transpose(f.rect)
            # One bucketing scan over the live fills feeds both the
            # per-layer area/height totals and (for even layers) the
            # adjacent layers' fill rects for the overlay slopes.
            # Summation order per layer is the live order, exactly as
            # the per-layer generator sums produced.
            rects_by_layer: Dict[int, List[Rect]] = {}
            area_sum: Dict[int, int] = {}
            h_sum: Dict[int, int] = {}
            for f in live:
                r = f.rect
                rects_by_layer.setdefault(f.layer, []).append(r)
                area_sum[f.layer] = area_sum.get(f.layer, 0) + r.area
                h_sum[f.layer] = h_sum.get(f.layer, 0) + 2 * r.height
            # A layer's live fills exist only when that layer has
            # candidates, so the adjacency guard of the wire gathering
            # above is vacuous here.
            fill_neighbors: Dict[int, List[Rect]] = {
                layer: list(rects_by_layer.get(layer - 1, ()))
                + list(rects_by_layer.get(layer + 1, ()))
                for layer in layer_numbers
                if layer % 2 == 0
            }
            excess: Dict[int, float] = {}
            height_sum: Dict[int, int] = {}
            for layer in layer_numbers:
                excess[layer] = area_sum.get(layer, 0) - float(
                    target_fill_area.get(layer, 0.0)
                )
                height_sum[layer] = h_sum.get(layer, 0)
            iteration_changed |= _horizontal_pass(
                fills,
                wire_arrays_by_axis[axis],
                fill_neighbors,
                close_pairs,
                excess,
                height_sum,
                rules,
                config,
                solve,
                stats,
            )
            if axis == "y":
                for f in fills:
                    if f.alive:
                        f.rect = _transpose(f.rect)
        # A full x+y round that moved nothing is a fixed point: every
        # remaining round would rebuild the identical LPs and return
        # the identical no-op solutions.  Skip them.
        if not iteration_changed:
            break

    # Post-sizing cull: where a layer still exceeds its target (the λ
    # over-generation margin of Alg. 1), deleting whole small fills both
    # closes the density gap and removes GDSII boundary records — the
    # file-size objective of Eqn. (3) at zero density cost.
    for layer in layer_numbers:
        live = sorted(
            (f for f in fills if f.alive and f.layer == layer),
            key=lambda f: f.rect.area,
        )
        excess = sum(f.rect.area for f in live) - float(
            target_fill_area.get(layer, 0.0)
        )
        for f in live:
            if f.rect.area > excess:
                break
            f.alive = False
            excess -= f.rect.area
            stats.dropped_fills += 1

    # Final cleanup: defensive legality filter, then a spacing sweep
    # that drops the smaller fill of any pair the passes left
    # unresolved (possible only for diagonal pairs neither axis could
    # repair within the iteration budget).
    for f in fills:
        if f.alive and not rules.is_legal_fill(f.rect):
            f.alive = False
            stats.dropped_fills += 1
    stats.dropped_fills += _strict_sweep_pairs(live0, close_pairs, rules)
    result: Dict[int, List[Rect]] = {layer: [] for layer in layer_numbers}
    for f in fills:
        if f.alive:
            result[f.layer].append(f.rect)
    return result, stats


def _strict_sweep_pairs(
    live0: Sequence[_Fill],
    close_pairs: Mapping[int, Sequence[Tuple[int, int]]],
    rules: DrcRules,
) -> int:
    """:func:`_prelegalize_strict` replayed over the close-pair lists.

    Gaps only grow, so the still-close pairs at the end of sizing are a
    subset of the pairs collected up front; visiting them in list order
    reproduces the index scan's first-visit order (and hence the same
    victim cascade) without rebuilding any spatial index.
    """
    dropped = 0
    sm = rules.min_spacing
    for pairs in close_pairs.values():
        for a, b in pairs:
            f = live0[a]
            other = live0[b]
            if not f.alive or not other.alive:
                continue
            if f.rect.euclidean_gap(other.rect) < sm:
                victim = f if f.rect.area <= other.rect.area else other
                victim.alive = False
                dropped += 1
    return dropped


def _prelegalize_strict(fills: List[_Fill], rules: DrcRules) -> int:
    """Drop the smaller fill of every remaining close pair.

    The index-scan oracle for :func:`_strict_sweep_pairs` (kept for the
    equivalence tests; the sizing path replays the precomputed pair
    lists instead of rebuilding an index here).
    """
    dropped = 0
    by_layer: Dict[int, List[_Fill]] = {}
    for f in fills:
        if f.alive:
            by_layer.setdefault(f.layer, []).append(f)
    for layer_fills in by_layer.values():
        index: GridIndex[_Fill] = GridIndex(
            max(64, rules.max_fill_width + rules.min_spacing)
        )
        for f in layer_fills:
            index.insert(f.rect, f)
        for f in layer_fills:
            if not f.alive:
                continue
            for rect, other in index.query_within(f.rect, rules.min_spacing):
                if other is f or not other.alive or not f.alive:
                    continue
                if f.rect.euclidean_gap(other.rect) < rules.min_spacing:
                    victim = f if f.rect.area <= other.rect.area else other
                    victim.alive = False
                    dropped += 1
    return dropped


def size_fills(
    layout: Layout,
    grid: WindowGrid,
    candidates: CandidatePlan,
    target_fill_area: Mapping[int, np.ndarray],
    config: Optional[FillConfig] = None,
    *,
    wire_indexes: Optional[Dict[int, GridIndex[int]]] = None,
) -> Tuple[Dict[WindowKey, Dict[int, List[Rect]]], SizingStats]:
    """Size the candidates of every window in ``candidates``.

    ``target_fill_area`` maps each layer to a ``(cols, rows)`` array of
    the fill area each window should keep — ``dt(l)·aw`` of Eqn. (9b).
    Windows are independent problems (the paper sizes per window),
    processed in grid order, which is also the order of the result: a
    window whose candidates are all empty maps to empty per-layer lists.
    The per-layer wire indexes answer each window's "wires near this
    window" query; ``wire_indexes`` supplies prebuilt ones, as for
    :func:`repro.core.generate_candidates`.
    """
    if config is None:
        config = FillConfig()
    rules = check_drc_params(layout.rules, name="layout.rules")
    margin = rules.min_spacing + config.effective_step(
        rules.max_fill_width, rules.max_fill_height
    )
    indexes = _wire_indexes_for(layout, wire_indexes)
    numbers = layout.layer_numbers
    total = SizingStats()
    result: Dict[WindowKey, Dict[int, List[Rect]]] = {}
    for i, j, window in grid:
        key = (i, j)
        cands = candidates.get(key)
        if cands is None:
            continue
        if not any(cands.values()):
            result[key] = {layer: [] for layer in cands}
            continue
        obs.metrics.counter("sizing.windows").inc()
        wires_nearby = {
            n: [r for r, _ in indexes[n].query_within(window, margin)] for n in numbers
        }
        targets = {n: float(area[i, j]) for n, area in target_fill_area.items()}
        result[key], stats = size_window(
            window, cands, wires_nearby, targets, rules, config
        )
        total.merge(stats)
    obs.metrics.counter("sizing.dropped_fills").inc(total.dropped_fills)
    return result, total
