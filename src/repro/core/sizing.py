"""Dummy fill sizing (paper §3.3).

Shrinks the candidate fills of each window to minimise

    Σ_l dg(l) + η · Σ_l ov(l, l+1)                     (Eqn. (9a))

under the DRC constraints (min width, min area, min spacing), by the
paper's relaxation strategy:

* the non-convex problem is split into alternating **horizontal** and
  **vertical** passes (§3.3.2) — in each pass the orthogonal dimension
  is frozen, turning the objective into a linear function of the fill
  edge coordinates,
* each pass is a differential-constraint LP (Eqn. (14)): variables are
  the edge coordinates, constraints are the merged width/area rule
  (Eqn. (12)) and pairwise spacing (Eqn. (13)), bounds are shrink-only
  trust regions ("variables are bounded to a certain range"),
* the LP is solved through its dual min-cost flow (§3.3.3) or, for the
  runtime baseline, scipy's LP solver,
* the absolute value in dg is removed by sign tracking: while a layer
  sits above its target the pass shrinks with a step budget sized to
  land on the target ("reducing the shrinking steps ... in each
  iteration"); once below, the density term resists further shrinking
  and only overlay pressure can pay for it.

Fills only ever shrink, so same-layer spacing legality is monotone:
once the pre-legalisation pass and the spacing constraints have
resolved the candidate-stage violations, no pass can create new ones.

Windows are independent problems, and a window holds a few dozen
fills, so the windows of one window column are sized together as one
batch of int64 arrays (:class:`_Batch`).  A pass prices every fill of
the batch with array expressions; the windows whose LP then splits
into one-fill components (no spacing constraint this pass) are solved
together by one :func:`~repro.netflow.solve_dual_mcf` call on a
:class:`~repro.netflow.PairLP`, and only a window with spacing
constraints (or every window under ``solver="lp"``) builds its own
:class:`~repro.netflow.DifferentialLP`.  Each window's result equals
sizing it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..contracts import check_drc_params
from ..geometry import GridIndex, Rect
from ..layout import DrcRules, Layout, WindowGrid
from ..netflow import (
    DifferentialLP,
    LPInfeasibleError,
    PairLP,
    solve_dual_mcf,
    solve_linprog,
)
from .candidates import CandidatePlan, _key_join, _wire_indexes_for
from .config import FillConfig

__all__ = ["SizingStats", "size_window", "size_fills"]

WindowKey = Tuple[int, int]


@dataclass
class SizingStats:
    """Bookkeeping of one sizing run (reported by the engine)."""

    lp_solves: int = 0
    variables: int = 0
    constraints: int = 0
    dropped_fills: int = 0
    windows: int = 0

    def merge(self, other: "SizingStats") -> None:
        self.lp_solves += other.lp_solves
        self.variables += other.variables
        self.constraints += other.constraints
        self.dropped_fills += other.dropped_fills
        self.windows += other.windows


def _achievable_gap_x(a: Rect, b: Rect, rules: DrcRules) -> int:
    """Largest horizontal gap reachable by shrinking ``a`` and ``b``."""
    left, right = (a, b) if a.xl <= b.xl else (b, a)
    min_w_left = rules.min_width_for_height(left.height)
    min_w_right = rules.min_width_for_height(right.height)
    return (right.xh - min_w_right) - (left.xl + min_w_left)


def _min_width(rules: DrcRules, height: np.ndarray) -> np.ndarray:
    """:meth:`DrcRules.min_width_for_height` of every height — Eqn. (12)."""
    if (height <= 0).any():
        raise ValueError("height must be positive")
    return np.maximum(rules.min_width, -(-rules.min_area // height))


def _overlapping(
    a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]
) -> np.ndarray:
    """Positive-area overlap of ``(xl, yl, xh, yh)`` boxes, row by row."""
    return (
        (np.minimum(a[2], b[2]) > np.maximum(a[0], b[0]))
        & (np.minimum(a[3], b[3]) > np.maximum(a[1], b[1]))
    )


class _Batch:
    """The candidate fills of some windows, sized together as arrays.

    ``candidates`` and ``targets`` hold one mapping per window (layer
    to candidate rects, layer to target fill area).  ``wires`` maps a
    layer to wire rects, of which window ``w`` sees those whose closed
    box reaches ``reach[0][w] <= y <= reach[1][w]``.

    Fills are numbered window by window, layers ascending, each layer
    in candidate order: the order in which one window's LP numbers its
    variables, so every per-window loop here visits fills, pairs and
    constraints exactly as sizing that window alone would.  A fill's
    group is its (window, layer); the group keys also index the
    per-(window, layer) targets.
    """

    def __init__(
        self,
        candidates: Sequence[Mapping[int, Sequence[Rect]]],
        targets: Sequence[Mapping[int, float]],
        wires: Mapping[int, Sequence[Rect]],
        reach: Tuple[np.ndarray, np.ndarray],
        rules: DrcRules,
        config: FillConfig,
    ) -> None:
        self.rules = rules
        self.config = config
        self.layer_keys = [sorted(c) for c in candidates]
        self.nwin = len(candidates)
        rects: List[Rect] = []
        layers: List[int] = []
        wins: List[int] = []
        for w, (cands, keys) in enumerate(zip(candidates, self.layer_keys)):
            for layer in keys:
                rects.extend(cands[layer])
                layers.extend([layer] * len(cands[layer]))
                wins.extend([w] * len(cands[layer]))
        n = len(rects)
        self._candidates = rects
        self._start = np.fromiter(
            (v for r in rects for v in (r.xl, r.yl, r.xh, r.yh)), np.int64, 4 * n
        ).reshape(n, 4)
        self.xl, self.yl, self.xh, self.yh = (self._start[:, k].copy() for k in range(4))
        self.layer = np.array(layers, dtype=np.int64)
        self.win = np.array(wins, dtype=np.int64)
        numbers = sorted({layer for keys in self.layer_keys for layer in keys})
        # Group keys leave room for the layers one above and below, the
        # overlay neighbours of every candidate layer.
        self._base = (numbers[0] if numbers else 0) - 1
        self._span = (numbers[-1] - numbers[0] + 3) if numbers else 1
        self.grp = self._key(self.win, self.layer)
        self.target = np.zeros(self.nwin * self._span)
        for w, per_window in enumerate(targets):
            for layer in self.layer_keys[w]:
                self.target[self._key(w, layer)] = float(per_window.get(layer, 0.0))
        self.alive = np.ones(n, dtype=bool)
        self.dropped = 0
        self._prelegalize()
        self.live = np.flatnonzero(self.alive)
        self._wire_pairs(wires, *reach)
        self._fill_pairs()

    def _key(self, win, layer):
        return win * self._span + (layer - self._base)

    def _box(self, idx) -> Tuple[np.ndarray, ...]:
        return self.xl[idx], self.yl[idx], self.xh[idx], self.yh[idx]

    def _rect(self, k: int, axis: int = 0) -> Rect:
        if axis:
            return Rect(int(self.yl[k]), int(self.xl[k]), int(self.yh[k]), int(self.xh[k]))
        return Rect(int(self.xl[k]), int(self.yl[k]), int(self.xh[k]), int(self.yh[k]))

    # ------------------------------------------------------------------
    # pre-legalisation: drop fills whose spacing can never be repaired
    # ------------------------------------------------------------------
    def _prelegalize(self) -> None:
        """Drop the smaller fill of every unrepairable close pair.

        A pair is close when its Euclidean gap is below the minimum
        spacing, and unrepairable when it overlaps or neither axis can
        reach the spacing even with both fills at their minimum legal
        size.  The cascade visits each fill's close partners in fill
        order, fills in order — both directions of a pair, since the
        repair test reads its two fills asymmetrically on ties.  The
        surviving close pairs (each once, lower fill first) feed every
        pass's spacing constraints and the final sweep: fills only
        shrink, so no other pair can come within the spacing later.
        """
        sm = self.rules.min_spacing
        firsts, seconds = [], []
        for i, j in _key_join(self.grp, self.grp):
            a, b = self._box(i), self._box(j)
            dx = np.maximum(0, np.maximum(a[0], b[0]) - np.minimum(a[2], b[2]))
            dy = np.maximum(0, np.maximum(a[1], b[1]) - np.minimum(a[3], b[3]))
            keep = (i != j) & (dx * dx + dy * dy < sm * sm)
            firsts.append(i[keep])
            seconds.append(j[keep])
        first = np.concatenate(firsts) if firsts else np.zeros(0, np.int64)
        second = np.concatenate(seconds) if seconds else np.zeros(0, np.int64)
        alive = self.alive
        for f, o in zip(first.tolist(), second.tolist()):
            if not (alive[f] and alive[o]):
                continue
            rf, ro = self._rect(f), self._rect(o)
            if rf.overlaps(ro) or (
                _achievable_gap_x(rf, ro, self.rules) < sm
                and _achievable_gap_x(self._rect(f, 1), self._rect(o, 1), self.rules) < sm
            ):
                alive[f if rf.area <= ro.area else o] = False
                self.dropped += 1
        keep = (first < second) & alive[first] & alive[second]
        self.pair_lo, self.pair_hi = first[keep], second[keep]

    # ------------------------------------------------------------------
    # overlay neighbours
    # ------------------------------------------------------------------
    def _wire_pairs(
        self, wires: Mapping[int, Sequence[Rect]], lows: np.ndarray, highs: np.ndarray
    ) -> None:
        """Which live fills overlap which wires of the layers around them.

        Window ``w`` sees a wire when the wire's closed box reaches
        ``[lows[w], highs[w]]`` in y (both sorted by window); in x
        every wire given reaches every window.  Fills only shrink, so a
        fill and a wire that do not overlap now never will: these pairs
        are every pass's fill-vs-wire overlay neighbours.
        """
        #: fill x wire overlaps: the fill, then the wire's (xl, yl, xh, yh)
        self.wire_fill = np.zeros(0, np.int64)
        self.wire_box: Tuple[np.ndarray, ...] = (self.wire_fill,) * 4
        numbers = {layer for keys in self.layer_keys for layer in keys}
        used = [n for n in sorted(wires) if n - 1 in numbers or n + 1 in numbers]
        rects = [r for n in used for r in wires[n]]
        if not rects or not self.live.size:
            return
        m = len(rects)
        layer = np.repeat(np.array(used, dtype=np.int64), [len(wires[n]) for n in used])
        box = np.fromiter(
            (v for r in rects for v in (r.xl, r.yl, r.xh, r.yh)), np.int64, 4 * m
        ).reshape(m, 4)
        first = np.searchsorted(highs, box[:, 1], "left")
        count = np.maximum(np.searchsorted(lows, box[:, 3], "right") - first, 0)
        wire = np.repeat(np.arange(m), count)
        ends = np.cumsum(count)
        win = np.repeat(first - ends + count, count) + np.arange(ends[-1])
        keys = self._key(win, layer[wire])
        order = np.argsort(keys, kind="stable")
        keys, wire = keys[order], wire[order]
        live = self.live
        fill = np.concatenate((live, live))
        want = np.concatenate(
            (
                self._key(self.win[live], self.layer[live] - 1),
                self._key(self.win[live], self.layer[live] + 1),
            )
        )
        fills, boxes = [], []
        for i, j in _key_join(want, keys):
            f, b = fill[i], box[wire[j]]
            keep = _overlapping(self._box(f), (b[:, 0], b[:, 1], b[:, 2], b[:, 3]))
            fills.append(f[keep])
            boxes.append(b[keep])
        if fills:
            self.wire_fill = np.concatenate(fills)
            b = np.concatenate(boxes)
            self.wire_box = (b[:, 0].copy(), b[:, 1].copy(), b[:, 2].copy(), b[:, 3].copy())

    def _fill_pairs(self) -> None:
        """Even-layer fills x overlapping live fills of the adjacent layers.

        Each Eqn. (9c) overlay term ov(l, l+1) is priced exactly once:
        fill-vs-wire overlay is charged to the fill's own layer, while
        fill-vs-fill overlay is charged to the even layer of the pair
        only (the layer whose candidates Alg. 1 chose against the odd
        layers).  Charging both sides would double η and make stacked
        layers shrink-chase each other.
        """
        live = self.live
        even = live[self.layer[live] % 2 == 0]
        fill = np.concatenate((even, even))
        want = np.concatenate(
            (
                self._key(self.win[even], self.layer[even] - 1),
                self._key(self.win[even], self.layer[even] + 1),
            )
        )
        fills, others = [], []
        for i, j in _key_join(want, self.grp[live]):
            f, o = fill[i], live[j]
            keep = _overlapping(self._box(f), self._box(o))
            fills.append(f[keep])
            others.append(o[keep])
        self.pair_fill = np.concatenate(fills) if fills else np.zeros(0, np.int64)
        self.pair_other = np.concatenate(others) if others else np.zeros(0, np.int64)

    # ------------------------------------------------------------------
    # one directional pass (horizontal; the vertical pass swaps the axes)
    # ------------------------------------------------------------------
    def _slopes(
        self, axis: int, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Marginal overlay height at the low and high edge of every fill.

        The slope at an edge is the total neighbour height whose overlap
        width would shrink if that edge moved inward — the left
        derivative, valid for the shrink-only trust region.
        """
        lo, ylo, hi, yhi = self._axes(axis)
        wsel = active[self.win[self.wire_fill]]
        psel = active[self.win[self.pair_fill]]
        other = self.pair_other[psel]
        box = [c[wsel] for c in self.wire_box]
        if axis:
            box = [box[1], box[0], box[3], box[2]]
        k = np.concatenate((self.wire_fill[wsel], self.pair_fill[psel]))
        nlo = np.concatenate((box[0], lo[other]))
        nylo = np.concatenate((box[1], ylo[other]))
        nhi = np.concatenate((box[2], hi[other]))
        nyhi = np.concatenate((box[3], yhi[other]))
        flo, fhi = lo[k], hi[k]
        h_ov = np.minimum(yhi[k], nyhi) - np.maximum(ylo[k], nylo)
        w_ov = np.minimum(fhi, nhi) - np.maximum(flo, nlo)
        height = np.where((h_ov > 0) & (w_ov > 0), h_ov, 0)
        n = len(lo)
        low = np.bincount(k, height * (flo >= nlo), n).astype(np.int64)
        high = np.bincount(k, height * (fhi <= nhi), n).astype(np.int64)
        return low, high

    def _axes(self, axis: int) -> Tuple[np.ndarray, ...]:
        """(lo, ylo, hi, yhi) coordinate arrays of a pass; the vertical
        pass is the horizontal one on transposed fills."""
        if axis:
            return self.yl, self.xl, self.yh, self.xh
        return self.xl, self.yl, self.xh, self.yh

    def _spacing(
        self, axis: int, active: np.ndarray
    ) -> Dict[int, List[Tuple[int, int, int]]]:
        """Eqn. (13) constraints of this pass: window -> (left, right, need).

        Only the current-geometry gap of the close pairs needs
        re-checking.  A pair is repaired along the axis where it does
        NOT overlap: a pair stacked with overlapping x-spans separates
        naturally in y (the transposed pass), and forcing an
        x-separation instead would carve a whole fill width out of both
        fills.
        """
        sm = self.rules.min_spacing
        out: Dict[int, List[Tuple[int, int, int]]] = {}
        sel = active[self.win[self.pair_lo]]
        for k, m in zip(self.pair_lo[sel].tolist(), self.pair_hi[sel].tolist()):
            fk, fm = self._rect(k, axis), self._rect(m, axis)
            if fk.euclidean_gap(fm) >= sm:
                continue
            if min(fk.xh, fm.xh) - max(fk.xl, fm.xl) > 0:
                continue  # the other pass owns this pair
            if fk.gap_y(fm) > 0 and _achievable_gap_x(fk, fm, self.rules) < sm:
                continue  # diagonal pair, only repairable in y
            left, right = (k, m) if fk.xl <= fm.xl else (m, k)
            gap = (fm.xl - fk.xh) if left == k else (fk.xl - fm.xh)
            out.setdefault(int(self.win[k]), []).append((left, right, sm - gap))
        return out

    def _pass(self, axis: int, active: np.ndarray, stats: SizingStats) -> np.ndarray:
        """One Eqn. (14) pass over one axis of every active window.

        Returns which windows moved a fill — :meth:`size` stops a
        window once a whole x+y round is a fixed point (every later
        round would see identical inputs and produce the identical
        no-op solution).
        """
        rules, config = self.rules, self.config
        moved = np.zeros(self.nwin, dtype=bool)
        fills = self.live[active[self.win[self.live]]]
        if not fills.size:
            return moved
        lo_all, ylo_all, hi_all, yhi_all = self._axes(axis)
        win, grp = self.win[fills], self.grp[fills]
        lo, hi = lo_all[fills], hi_all[fills]
        h0 = yhi_all[fills] - ylo_all[fills]
        step = config.effective_step(rules.max_fill_width, rules.max_fill_height)

        # Per-layer density shrink budget ("reducing the shrinking steps").
        groups = len(self.target)
        excess = np.bincount(grp, (hi - lo) * h0, groups) - self.target
        over = excess > 0
        total_h = np.maximum(1.0, np.bincount(grp, 2 * h0, groups))
        budget = np.where(
            over, np.maximum(1.0, np.minimum(step, -(-excess // total_h))), step
        )
        sign = np.where(over[grp], 1, -1)
        move = budget[grp].astype(np.int64)
        low, high = self._slopes(axis, active)
        # Coefficients are doubled and biased by one unit toward keeping
        # the current size: when the density loss of shrinking exactly
        # cancels the overlay gain (a fill fully covered by neighbor
        # metal, s·h0 + η·slope == 0) the LP must not resolve the tie by
        # shrinking, or covered fills erode to nothing over the passes.
        eta = config.eta
        c_lo = np.rint(2 * (-sign * h0 - eta * low[fills])).astype(np.int64) + 1
        c_hi = np.rint(2 * (sign * h0 + eta * high[fills])).astype(np.int64) - 1
        # Shrink-only trust region: lo may move up, hi down, each by at
        # most `move`, never tighter than the minimum width allows.
        min_w = _min_width(rules, h0)
        ub_lo = np.maximum(lo, np.minimum(lo + move, hi - min_w))
        lb_hi = np.minimum(hi, np.maximum(hi - move, lo + min_w))

        # Route each window.  A window whose every cost pair is
        # (positive, negative) and that has no spacing constraint is a
        # no-op: each lo's unique optimum is its lower bound and each
        # hi's its upper bound, the current edges.  A window with
        # spacing constraints (or any window under the "lp" solver)
        # solves its own LP; the rest are one-fill components, solved
        # together in closed form.  An infeasible width pair (a fill
        # narrower than its Eqn. (12) width) makes the window's LP
        # infeasible, and the window keeps its sizes for this pass.
        spacing = self._spacing(axis, active)
        solve_lp = np.bincount(win, (c_lo <= 0) | (c_hi >= 0), self.nwin) > 0
        coupled = np.zeros(self.nwin, dtype=bool)
        coupled[list(spacing)] = True
        solve_lp |= coupled
        counts = np.bincount(win, minlength=self.nwin)
        solved = np.flatnonzero(solve_lp)
        variables = 2 * counts[solved]
        constraints = counts[solved] + np.array(
            [len(spacing.get(w, ())) for w in solved.tolist()], dtype=np.int64
        )
        stats.lp_solves += len(solved)
        stats.variables += int(variables.sum())
        stats.constraints += int(constraints.sum())
        obs.metrics.counter("sizing.lp_solves").inc(len(solved))
        var_hist = obs.metrics.histogram("sizing.lp.variables")
        con_hist = obs.metrics.histogram("sizing.lp.constraints")
        for v, c in zip(variables.tolist(), constraints.tolist()):
            var_hist.observe(v)
            con_hist.observe(c)
        if config.solver == "lp":
            coupled = solve_lp
        infeasible = np.bincount(win, hi - lo < min_w, self.nwin) > 0
        closed = (solve_lp & ~coupled & ~infeasible)[win]
        if closed.any():
            x = np.asarray(
                solve_dual_mcf(
                    PairLP(
                        c_lo[closed], c_hi[closed], lo[closed], ub_lo[closed],
                        lb_hi[closed], hi[closed], min_w[closed],
                    )
                ).x
            )
            self._write(fills[closed], x[0::2], x[1::2], lo_all, hi_all, moved)
        bounds = np.searchsorted(win, np.arange(self.nwin + 1))
        for w in np.flatnonzero(coupled).tolist():
            # Today's per-window LP: variables (lo, hi) fill by fill, the
            # width constraints, then the spacing constraints.
            rows = slice(bounds[w], bounds[w + 1])
            lo_w, hi_w, mw_w = lo[rows].tolist(), hi[rows].tolist(), min_w[rows].tolist()
            lp = DifferentialLP(
                costs=np.column_stack((c_lo[rows], c_hi[rows])).ravel().tolist(),
                lowers=np.column_stack((lo[rows], lb_hi[rows])).ravel().tolist(),
                uppers=np.column_stack((ub_lo[rows], hi[rows])).ravel().tolist(),
                constraints=[(2 * k + 1, 2 * k, mw) for k, mw in enumerate(mw_w)],
            )
            local = {f: k for k, f in enumerate(fills[rows].tolist())}
            for left, right, need in spacing.get(w, ()):
                kl, kr = local[left], local[right]
                if need > 0:
                    # Widen the trust region of the two edges so the
                    # repair is feasible this pass.
                    i_hi, i_lo = 2 * kl + 1, 2 * kr
                    lp.lowers[i_hi] = min(lp.lowers[i_hi], max(lo_w[kl] + mw_w[kl], hi_w[kl] - need))
                    lp.uppers[i_lo] = max(lp.uppers[i_lo], min(hi_w[kr] - mw_w[kr], lo_w[kr] + need))
                # x_lo(right) - x_hi(left) >= sm
                lp.constraints.append((2 * kr, 2 * kl + 1, rules.min_spacing))
            try:
                solution = (solve_linprog if config.solver == "lp" else solve_dual_mcf)(lp)
            except LPInfeasibleError:
                # Extremely rare residue of diagonal pairs; keep current
                # sizes — the vertical pass or the final cleanup
                # resolves the conflict.
                continue
            x = np.array(solution.x, dtype=np.int64)
            self._write(fills[rows], x[0::2], x[1::2], lo_all, hi_all, moved)
        return moved

    def _write(
        self,
        fills: np.ndarray,
        new_lo: np.ndarray,
        new_hi: np.ndarray,
        lo_all: np.ndarray,
        hi_all: np.ndarray,
        moved: np.ndarray,
    ) -> None:
        """Store a pass's solution and mark the windows it moved."""
        changed = (new_lo != lo_all[fills]) | (new_hi != hi_all[fills])
        moved[self.win[fills[changed]]] = True
        lo_all[fills] = new_lo
        hi_all[fills] = new_hi

    # ------------------------------------------------------------------
    # the whole run
    # ------------------------------------------------------------------
    def size(self, stats: SizingStats) -> List[Dict[int, List[Rect]]]:
        """Run the passes and the cleanup; returns each window's fills."""
        stats.dropped_fills += self.dropped
        active = np.bincount(self.win[self.live], minlength=self.nwin) > 0
        for _ in range(self.config.sizing_iterations):
            if not active.any():
                break
            moved = self._pass(0, active, stats)
            moved |= self._pass(1, active, stats)
            active &= moved

        # Post-sizing cull: where a layer still exceeds its target (the λ
        # over-generation margin of Alg. 1), deleting whole small fills both
        # closes the density gap and removes GDSII boundary records — the
        # file-size objective of Eqn. (3) at zero density cost.  Smallest
        # first (a stable sort: ties in fill order), while the area culled
        # so far stays within the excess.  Partial sums are exact int64,
        # so this is the running-excess loop's test exactly.
        width = self.xh - self.xl
        height = self.yh - self.yl
        area = width * height
        live = np.flatnonzero(self.alive)
        live = live[np.lexsort((area[live], self.grp[live]))]
        grp, fill_area = self.grp[live], area[live]
        excess = np.bincount(grp, fill_area, len(self.target)) - self.target
        running = np.cumsum(fill_area)
        first = np.searchsorted(grp, grp, "left")
        running -= running[first] - fill_area[first]
        cull = live[running <= excess[grp]]
        self.alive[cull] = False

        # Final cleanup: defensive legality filter, then a spacing sweep
        # that drops the smaller fill of any pair the passes left
        # unresolved (possible only for diagonal pairs neither axis could
        # repair within the iteration budget).
        rules = self.rules
        illegal = self.alive & ~(
            (width >= rules.min_width)
            & (height >= rules.min_width)
            & (area >= rules.min_area)
            & (width <= rules.max_fill_width)
            & (height <= rules.max_fill_height)
        )
        self.alive[illegal] = False
        stats.dropped_fills += len(cull) + int(illegal.sum())
        for a, b in zip(self.pair_lo.tolist(), self.pair_hi.tolist()):
            if not (self.alive[a] and self.alive[b]):
                continue
            ra, rb = self._rect(a), self._rect(b)
            if ra.euclidean_gap(rb) < rules.min_spacing:
                self.alive[a if ra.area <= rb.area else b] = False
                stats.dropped_fills += 1

        out: List[Dict[int, List[Rect]]] = [
            {layer: [] for layer in keys} for keys in self.layer_keys
        ]
        kept = np.flatnonzero(self.alive)
        # A fill that never moved is its candidate rect; the moved ones
        # share one int object per distinct coordinate.
        rects = [self._candidates[k] for k in kept.tolist()]
        box = np.column_stack((self.xl, self.yl, self.xh, self.yh))[kept]
        shrunk = np.flatnonzero((box != self._start[kept]).any(axis=1))
        values, index = np.unique(box[shrunk], return_inverse=True)
        values = values.tolist()
        for pos, (a, b, c, d) in zip(shrunk.tolist(), index.reshape(-1, 4).tolist()):
            rects[pos] = Rect(values[a], values[b], values[c], values[d])
        for w, layer, rect in zip(
            self.win[kept].tolist(), self.layer[kept].tolist(), rects
        ):
            out[w][layer].append(rect)
        return out


# ----------------------------------------------------------------------
# entry points
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

    ``wires_nearby`` maps each layer to its wire rectangles around the
    window (used for cross-layer overlay: a fill on layer ``l`` is
    priced against the wires of layers ``l ± 1``);
    ``target_fill_area`` maps each layer to the fill area (dbu²) the
    density plan asks of this window — ``dt(l) · aw`` of Eqn. (9b).
    Returns the final fills per layer plus solver statistics.
    """
    if config is None:
        config = FillConfig()
    stats = SizingStats(windows=1)
    everywhere = np.iinfo(np.int64)
    batch = _Batch(
        [candidates],
        [target_fill_area],
        wires_nearby,
        (np.array([everywhere.min]), np.array([everywhere.max])),
        rules,
        config,
    )
    return batch.size(stats)[0], stats


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
    Windows are independent problems (the paper sizes per window); the
    windows of one grid column are sized as one batch, and the result
    is in grid order: a window whose candidates are all empty maps to
    empty per-layer lists.  A window sees the wires within the spacing
    rule of it, the reach of analysis, candidates and DRC: sizing reads
    only wires that overlap a fill, and fills lie inside their window
    and only shrink.  Each column takes its wires with one query per
    layer of the wire indexes (``wire_indexes`` supplies prebuilt ones,
    as for :func:`repro.core.generate_candidates`).
    """
    if config is None:
        config = FillConfig()
    rules = check_drc_params(layout.rules, name="layout.rules")
    margin = rules.min_spacing
    indexes = _wire_indexes_for(layout, wire_indexes)
    numbers = layout.layer_numbers
    total = SizingStats()
    columns: Dict[int, List[Tuple[WindowKey, Rect, Mapping[int, Sequence[Rect]]]]] = {}
    for i, j, window in grid:
        cands = candidates.get((i, j))
        if cands is not None:
            columns.setdefault(i, []).append(((i, j), window, cands))
    result: Dict[WindowKey, Dict[int, List[Rect]]] = {}
    for column in columns.values():
        busy = [entry for entry in column if any(entry[2].values())]
        sized: Dict[WindowKey, Dict[int, List[Rect]]] = {}
        if busy:
            obs.metrics.counter("sizing.windows").inc(len(busy))
            total.windows += len(busy)
            frame = Rect(
                busy[0][1].xl, busy[0][1].yl, busy[-1][1].xh, busy[-1][1].yh
            ).expanded(margin)
            batch = _Batch(
                [cands for _, _, cands in busy],
                [
                    {n: float(area[key]) for n, area in target_fill_area.items()}
                    for key, _, _ in busy
                ],
                {n: [r for r, _ in indexes[n].query(frame)] for n in numbers},
                (
                    np.array([w.yl - margin for _, w, _ in busy], dtype=np.int64),
                    np.array([w.yh + margin for _, w, _ in busy], dtype=np.int64),
                ),
                rules,
                config,
            )
            sized = dict(zip((key for key, _, _ in busy), batch.size(total)))
        for key, _, cands in column:
            result[key] = sized[key] if key in sized else {layer: [] for layer in cands}
    obs.metrics.counter("sizing.dropped_fills").inc(total.dropped_fills)
    return result, total
