"""Column-batched sizing vs the scalar per-window oracle.

``repro.core.sizing`` sizes the windows of a grid column as one batch
of int64 arrays; ``tests/core/sizing_oracle.py`` is the per-window,
per-``Rect`` implementation it replaced.  On seeded layouts whose
columns mix clean windows with coupled ones (close same-layer pairs:
overlapping, abutting, diagonal, stacked, unrepairable), windows with an
infeasible width pair, fills under adjacent-layer wires and fills,
empty layers and one-fill windows, both must return the same fills in
the same order (the library's box arrays read as rects) and the same
:class:`~repro.core.SizingStats`, for ``sizing_iterations`` 0-3 under
both solvers.
"""

import random

import numpy as np
import pytest

from repro.core import FillConfig, sizing
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid
from repro.netflow import DifferentialLP, PairLP, solve_dual_mcf

from . import sizing_oracle
from .plans import assert_box_entries, box_plan, rect_plan

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=90, max_fill_height=90
)
COLS, ROWS = 3, 4
DIE = Rect(0, 0, 3 * 320, 4 * 240)


def _fill(rng, x, y):
    return Rect(x, y, x + rng.randint(20, 80), y + rng.randint(20, 80))


def _special(rng, x, y):
    """A same-layer pair or shape that sizing must repair, drop or skip."""
    kind = rng.choice(
        (
            "overlap", "abut_x", "abut_y", "near_x", "diagonal",
            "unrepairable", "stacked", "narrow",
        )
    )
    a = _fill(rng, x, y)
    if kind == "overlap":
        return [a, Rect(a.xl + 5, a.yl + 5, a.xh + 7, a.yh + 3)]
    if kind == "abut_x":
        return [a, Rect(a.xh, a.yl + rng.randint(-5, 5), a.xh + 40, a.yh)]
    if kind == "abut_y":
        return [a, Rect(a.xl, a.yh, a.xh, a.yh + rng.randint(20, 50))]
    if kind == "near_x":
        gap = rng.randint(1, 9)
        return [a, Rect(a.xh + gap, a.yl, a.xh + gap + 30, a.yh + 10)]
    if kind == "diagonal":
        return [a, Rect(a.xh + 4, a.yh + 5, a.xh + 50, a.yh + 45)]
    if kind == "unrepairable":
        # two minimum-area fills too close for either axis
        b = Rect(x, y, x + 20, y + 10)
        return [b, Rect(b.xh + 3, y, b.xh + 23, y + 10)]
    if kind == "stacked":
        # flush left edges: the x repair test reads the two fills
        # asymmetrically, so only the wider fill's visit drops one
        return [Rect(x, y, x + 20, y + 10), Rect(x, y + 13, x + rng.randint(60, 80), y + 23)]
    # narrower than the Eqn. (12) width of its height: an infeasible
    # width pair in every pass that does not skip the window
    return [a, Rect(a.xh + 30, a.yl, a.xh + 37, a.yl + 25)]


def _window_candidates(rng, window, layers):
    """Tile-like candidates with specials; some layers or windows empty."""
    shape = rng.random()
    out = {}
    for layer in layers:
        if shape < 0.12 or rng.random() < 0.15:
            out[layer] = []
            continue
        if shape < 0.25:
            out[layer] = [_fill(rng, window.xl + 30, window.yl + 30)]
            continue
        rects = []
        for gx in range(window.xl + 5, window.xh - 90, 100):
            for gy in range(window.yl + 5, window.yh - 90, 100):
                if rng.random() < 0.25:
                    rects.extend(_special(rng, gx, gy))
                elif rng.random() < 0.8:
                    rects.append(_fill(rng, gx, gy))
        out[layer] = rects
    if shape < 0.05:
        out = {}
    return out


def _add_zero_cost_fill(layout, plan):
    """Window (0, 0): one layer-2 fill whose left-edge cost is 0 at η = 0.5.

    Wires on layers 1 and 3 cover its left part over its full height h0
    and a third covers one dbu of it, so the edge's overlay slope is
    2·h0 + 1 and, below target, 2·(h0 − η·slope) + 1 = 0.
    """
    fill = Rect(100, 100, 160, 140)
    layout.layer(1).add_wire(Rect(90, 100, 130, 140))
    layout.layer(3).add_wire(Rect(90, 100, 130, 140))
    layout.layer(1).add_wire(Rect(95, 100, 120, 101))
    plan[(0, 0)] = {1: [], 2: [fill], 3: []}


def make_case(seed):
    rng = random.Random(seed)
    layout = Layout(DIE, num_layers=3 - seed % 2, rules=RULES, name="batch")
    for n in layout.layer_numbers:
        for _ in range(rng.randint(10, 40)):
            x, y = rng.randrange(0, DIE.xh - 40), rng.randrange(0, DIE.yh - 40)
            if rng.random() < 0.5:
                rect = Rect(x, y, min(DIE.xh, x + rng.randint(100, 400)), y + rng.randint(10, 40))
            else:
                rect = Rect(x, y, x + rng.randint(10, 40), min(DIE.yh, y + rng.randint(100, 400)))
            layout.layer(n).add_wire(rect)
    grid = WindowGrid(DIE, COLS, ROWS)
    plan = {}
    for i, j, window in grid:
        if rng.random() < 0.1:
            continue  # not part of this run
        plan[(i, j)] = _window_candidates(rng, window, layout.layer_numbers)
    if seed % 4 == 0:
        _add_zero_cost_fill(layout, plan)
    targets = {}
    for n in layout.layer_numbers:
        area = np.zeros((COLS, ROWS))
        for (i, j), cands in plan.items():
            have = sum(r.area for r in cands.get(n, ()))
            area[i, j] = have * rng.choice((0.0, 0.3, 0.7, 0.95, 1.2)) + rng.random()
        targets[n] = area
    if seed % 4 == 0:
        targets[2][0, 0] = 5000.0
    return layout, grid, plan, targets


def _config(seed, solver, iterations):
    eta = (0.5, 0.2, 1.0, 0.0)[seed % 4]
    return FillConfig(eta=eta, solver=solver, sizing_iterations=iterations)


def _flatten(result):
    return [(key, list(per.items())) for key, per in result.items()]


SEEDS = range(8)
#: HiGHS is slow, so half the seeds cover the lp route
CASES = [(seed, "mcf-ssp") for seed in SEEDS] + [(seed, "lp") for seed in SEEDS[::2]]


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
@pytest.mark.parametrize("seed, solver", CASES)
def test_size_fills_matches_oracle(seed, solver, iterations):
    layout, grid, plan, targets = make_case(seed)
    config = _config(seed, solver, iterations)
    got, got_stats = sizing.size_fills(layout, grid, box_plan(plan), targets, config)
    want, want_stats = sizing_oracle.size_fills(layout, grid, plan, targets, config)
    assert_box_entries(got)
    assert _flatten(rect_plan(got)) == _flatten(want)
    assert got_stats == want_stats


@pytest.mark.parametrize("solver", ["mcf-ssp", "lp"])
@pytest.mark.parametrize("seed", SEEDS)
def test_size_window_matches_oracle(seed, solver):
    layout, grid, plan, targets = make_case(seed)
    config = _config(seed, solver, 3)
    wires = {n: layout.layer(n).wires for n in layout.layer_numbers}
    for (i, j), cands in plan.items():
        window = grid.window(i, j)
        goal = {n: float(area[i, j]) for n, area in targets.items()}
        got = sizing.size_window(window, cands, wires, goal, RULES, config)
        want = sizing_oracle.size_window(window, cands, wires, goal, RULES, config)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]


def test_cases_reach_every_route(monkeypatch):
    """The seeded cases exercise each way a window pass can go."""
    seen = {"pairs": 0, "zero_cost": 0, "tie": 0, "coupled": 0, "infeasible": 0}

    def record(lp, **kwargs):
        if isinstance(lp, PairLP):
            seen["pairs"] += 1
            seen["zero_cost"] += int(((lp.a == 0) | (lp.b == 0)).sum())
            seen["tie"] += int(((lp.a + lp.b) == 0).sum())
        elif isinstance(lp, DifferentialLP):
            seen["coupled"] += 1
        return solve_dual_mcf(lp, **kwargs)

    def count_infeasible(lp):
        # an LP the oracle fails on because a fill is narrower than its
        # width constraint, not because of a spacing chain
        narrow = any(
            lp.uppers[i] < lp.lowers[j] + w
            for i, j, w in lp.constraints
            if j % 2 == 0 and i == j + 1
        )
        try:
            return solve_components(lp)
        except sizing_oracle.LPInfeasibleError:
            seen["infeasible"] += narrow
            raise

    solve_components = sizing_oracle.solve_components
    monkeypatch.setattr(sizing, "solve_dual_mcf", record)
    monkeypatch.setattr(sizing_oracle, "solve_components", count_infeasible)
    for seed in SEEDS:
        layout, grid, plan, targets = make_case(seed)
        config = _config(seed, "mcf-ssp", 3)
        got, got_stats = sizing.size_fills(layout, grid, box_plan(plan), targets, config)
        assert (rect_plan(got), got_stats) == sizing_oracle.size_fills(
            layout, grid, plan, targets, config
        )
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_column_reads_only_the_wires_over_its_windows(seed):
    """Sizing a column with every wire, or with only the wires that
    overlap its windows, gives the same fills and SizingStats: fills lie
    inside their windows and only shrink, so no other wire ever meets one
    (the wire reach of sizing is the spacing rule, not a pass's step)."""
    layout, grid, plan, targets = make_case(seed)
    column = {
        key: {n: [r for r in rects if grid.window(*key).contains(r)] for n, rects in cands.items()}
        for key, cands in plan.items()
        if key[0] == 1
    }
    windows = [grid.window(*key) for key in column]
    bare = Layout(DIE, layout.num_layers, RULES, name="bare")
    for n in layout.layer_numbers:
        bare.layer(n).add_wires(
            wire for wire in layout.layer(n).wires if any(wire.overlaps(w) for w in windows)
        )
    assert bare.num_wires < layout.num_wires
    config = _config(seed, "mcf-ssp", 3)
    full, full_stats = sizing.size_fills(layout, grid, box_plan(column), targets, config)
    only, only_stats = sizing.size_fills(bare, grid, box_plan(column), targets, config)
    assert _flatten(rect_plan(full)) == _flatten(rect_plan(only))
    assert full_stats == only_stats
    assert full_stats.lp_solves > 0
