"""Column-batched Alg. 1 vs the scalar per-tile oracle.

``repro.core.candidates`` runs Alg. 1 on each window column as one
batch of int64 arrays; ``tests/core/candidates_oracle.py`` is the
per-window, per-tile, per-``Rect`` implementation it replaced.  On
seeded grids of 2-5 layers, with square, wide and tall fill cells,
uneven windows at the die edge, free regions salted with zero-area
rects and targets drawn from the whole
``[l, u]`` band of every window (so both Case I and Case II, aligned
and staggered even layers all occur), both must return the same rects
in the same order — for the whole grid and for window subsets, the
library's box arrays read as rects — and ``grid_candidates`` must
equal the oracle's with and without ``anchor``, ``stagger`` and
``prefer``.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import FillConfig, generate_candidates, grid_candidates
from repro.core.planner import DensityPlan, LayerPlan
from repro.density import analyze_layout
from repro.geometry import Rect, boxes, rect_set_intersect, rects_of
from repro.layout import DrcRules, Layout, WindowGrid

from . import candidates_oracle as oracle
from .plans import assert_box_entries, rect_plan

#: square, wide and tall fill cells, so no axis can stand in for the other
DECKS = (
    DrcRules(min_spacing=10, min_width=10, min_area=200, max_fill_width=90, max_fill_height=90),
    DrcRules(min_spacing=12, min_width=10, min_area=300, max_fill_width=100, max_fill_height=70),
    DrcRules(min_spacing=7, min_width=8, min_area=150, max_fill_width=55, max_fill_height=120),
)
SEEDS = range(12)


def _wire(rng, die, odd):
    """A bar along the layer's preferred direction, or a small block."""
    x, y = rng.randrange(die.xl, die.xh - 20), rng.randrange(die.yl, die.yh - 20)
    if rng.random() < 0.25:
        return Rect(x, y, x + rng.randint(15, 60), y + rng.randint(15, 60))
    long, short = rng.randint(60, 500), rng.randint(8, 30)
    w, h = (long, short) if odd else (short, long)
    return Rect(x, y, min(die.xh, x + w), min(die.yh, y + h))


def make_case(seed):
    """A layout, its grid, analysis (with zero-area region rects) and a
    plan whose per-window targets span each window's feasible band."""
    rng = random.Random(seed)
    layers = 2 + seed % 4
    rules = DECKS[seed % 3]
    die = Rect(0, 0, rng.randrange(700, 1000), rng.randrange(600, 900))
    layout = Layout(die, layers, rules, name="alg1")
    for n in layout.layer_numbers:
        for _ in range(rng.randint(6, 40)):
            layout.layer(n).add_wire(_wire(rng, die, n % 2 == 1))
    grid = WindowGrid(die, rng.randint(2, 4), rng.randint(2, 4))
    config = FillConfig(
        lambda_factor=rng.choice((1.0, 1.1, 1.5)), gamma=rng.choice((0.0, 1.0, 2.5))
    )
    analysis = analyze_layout(layout, grid, config.effective_margin(rules.min_spacing))
    for ld in analysis.values():
        for key, region in ld.fill_regions.items():
            for _ in range(rng.choice((0, 0, 1, 2))):
                x, y = rng.randrange(die.xh), rng.randrange(die.yh)
                zero = (x, y, x, y + 30) if rng.random() < 0.5 else (x, y, x + 30, y)
                region = np.insert(region, rng.randrange(len(region) + 1), zero, axis=0)
            ld.fill_regions[key] = region
    layer_plans = {}
    for n, ld in analysis.items():
        share = np.array(
            [[rng.choice((0.0, 0.02, 0.1, 0.5, 1.0)) for _ in range(grid.rows)]
             for _ in range(grid.cols)]
        )
        target = ld.lower + share * (ld.upper - ld.lower)
        layer_plans[n] = LayerPlan(n, float(target.mean()), target, "II")
    return layout, grid, analysis, DensityPlan(layer_plans, 0.0), config


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_grid_matches_oracle(seed):
    layout, grid, analysis, plan, config = make_case(seed)
    got = generate_candidates(layout, grid, plan, analysis, config)
    want = oracle.generate_candidates(layout, grid, plan, analysis, config)
    assert_box_entries(got)
    assert list(rect_plan(got).items()) == list(want.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_window_subsets_match_oracle(seed):
    layout, grid, analysis, plan, config = make_case(seed)
    keys = [(i, j) for i, j, _ in grid]
    rng = random.Random(f"subset-{seed}")
    for size in (1, len(keys) // 3, len(keys) - 1):
        windows = rng.sample(keys, size)
        got = generate_candidates(layout, grid, plan, analysis, config, windows)
        want = oracle.generate_candidates(layout, grid, plan, analysis, config, windows)
        assert list(rect_plan(got).items()) == list(want.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_candidates_matches_oracle(seed):
    layout, grid, analysis, _, _ = make_case(seed)
    numbers = layout.layer_numbers
    for i, j, window in grid:
        for n in numbers:
            region = rects_of(analysis[n].fill_regions[(i, j)])
            above = rects_of(analysis[numbers[n % len(numbers)]].fill_regions[(i, j)])
            prefer = rect_set_intersect(region, above) + [Rect(window.xl, 5, window.xl, 40)]
            for kwargs in (
                {},
                {"anchor": window},
                {"stagger": True},
                {"anchor": window, "stagger": True},
                {"anchor": window, "prefer": prefer},
                {"prefer": prefer, "stagger": True},
            ):
                got = grid_candidates(
                    boxes(region, len(region)),
                    layout.rules,
                    **{k: boxes(v, len(v)) if k == "prefer" else v for k, v in kwargs.items()},
                )
                assert got == oracle.grid_candidates(region, layout.rules, **kwargs), kwargs


def test_single_layer_has_no_region3():
    layout, grid, analysis, plan, config = make_case(1)
    one = Layout(layout.die, 1, layout.rules)
    one.layer(1).add_wires(layout.layer(1).wires)
    analysis = {1: analysis[1]}
    plan = DensityPlan({1: plan.layers[1]}, 0.0)
    got = rect_plan(generate_candidates(one, grid, plan, analysis, config))
    assert got == oracle.generate_candidates(one, grid, plan, analysis, config)
    assert any(rects for per_layer in got.values() for rects in per_layer.values())


def test_every_route_is_reached(monkeypatch):
    """The seeded inputs above take every branch of the oracle."""
    monkeypatch.setattr(oracle, "ROUTES", Counter())
    for seed in SEEDS:
        layout, grid, analysis, plan, config = make_case(seed)
        oracle.generate_candidates(layout, grid, plan, analysis, config)
    routes = (
        "tile.empty",
        "tile.one_rect",
        "tile.covered",
        "tile.partial",
        "case1.preferred",
        "case1.fallback",
        "stagger",
        "region3.triple",
    )
    assert {r: oracle.ROUTES[r] > 0 for r in routes} == dict.fromkeys(routes, True), oracle.ROUTES
