"""Raster kernel vs rect oracle: exact-equality property tests.

The density analysis runs the raster kernel on some layers and the
rect-set scanline path on the others, so the raster kernel promises
*bit identity* with the rect path, not approximation.  These tests pin
the contract at the function level on randomized layouts: l/u bounds,
fill regions, usable areas and the incremental refresh must all match
the oracle exactly (``np.array_equal``, no tolerances);
``tests/core/test_stream_fill.py`` forces each kernel alone through
whole fills and compares GDSII bytes.  The covered-area map, the
overlay map and the score's raw components are checked against
independent oracles: a 1-dbu bitmap and the die-wide overlay sweep.
"""

import random

import numpy as np
import pytest

from repro.density import MultiWindowGrid, RawComponents, compute_metrics, measure_raw_components
from repro.density.analysis import (
    analyze_layer,
    analyze_layout,
    overlay_area,
    overlay_map,
    refresh_analysis,
    usable_fill_area,
    window_area_map,
)
from repro.density.raster import (
    raster_analyze_layer,
    raster_area_map,
    raster_fill_regions,
    window_cuts,
)
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)

SEEDS = [3, 17, 91, 404]


def random_layout(seed, *, die=1100, layers=3, wires=60, fills=25, odd=False):
    """A randomized multi-layer layout with deliberately uneven shapes.

    ``odd=True`` makes the die dimension indivisible by the grid so the
    last window column/row absorbs the remainder — the case where a
    sloppy cut-line computation would diverge from ``WindowGrid``.
    """
    rng = random.Random(seed)
    if odd:
        die += 7  # prime-ish remainder: last window is wider/taller
    layout = Layout(Rect(0, 0, die, die), num_layers=layers, rules=RULES)
    for n in layout.layer_numbers:
        if n == layers:  # keep the top layer empty on purpose
            continue
        for _ in range(wires):
            x = rng.randrange(0, die - 101)
            y = rng.randrange(0, die - 101)
            w = rng.randrange(1, 100)  # odd widths/heights included
            h = rng.randrange(1, 100)
            layout.layer(n).add_wire(Rect(x, y, x + w, y + h))
        for _ in range(fills):
            x = rng.randrange(0, die - 101)
            y = rng.randrange(0, die - 101)
            w = rng.randrange(10, 100)
            h = rng.randrange(10, 100)
            layout.layer(n).add_fill(Rect(x, y, x + w, y + h))
    grid = WindowGrid(layout.die, 4, 4)
    return layout, grid


class TestWindowCuts:
    @pytest.mark.parametrize("odd", [False, True])
    def test_cuts_match_window_grid(self, odd):
        layout, grid = random_layout(1, odd=odd)
        xs, ys = window_cuts(grid)
        for i in range(grid.cols):
            for j in range(grid.rows):
                win = grid.window(i, j)
                assert (xs[i], ys[j], xs[i + 1], ys[j + 1]) == (
                    win.xl,
                    win.yl,
                    win.xh,
                    win.yh,
                )


def _phase_grid(layout):
    """A phase-shifted multi-window grid whose die is smaller than the
    layout's, so shapes cross its edge."""
    base = WindowGrid(layout.die, 5, 5)
    a, b, grid = list(MultiWindowGrid(base, 2).phases())[-1]
    assert (a, b) == (1, 1)
    assert any(r.intersection(grid.die) not in (None, r) for r in layout.layer(1).shapes)
    return grid


def _assert_area_maps_match_bitmap(layout, grid):
    for n in layout.layer_numbers:
        layer = layout.layer(n)
        for shapes in (layer.wires, layer.shapes):
            got = raster_area_map(shapes, grid)
            assert np.array_equal(got, _bitmap_area_map(shapes, grid)), n


class TestDensityMapParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_maps_bit_identical(self, seed, odd):
        layout, grid = random_layout(seed, odd=odd)
        _assert_area_maps_match_bitmap(layout, grid)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_phase_grid_maps_bit_identical(self, seed):
        layout, _ = random_layout(seed)
        _assert_area_maps_match_bitmap(layout, _phase_grid(layout))

    def test_empty_layer_zero(self):
        layout, grid = random_layout(2)
        top = layout.layer(max(layout.layer_numbers))
        assert not top.wires and not top.fills
        assert np.all(raster_area_map(top.shapes, grid) == 0)


class TestAnalyzeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("margin", [0, 7])
    def test_layer_bounds_and_regions(self, seed, margin):
        layout, grid = random_layout(seed, odd=bool(seed % 2))
        for n in layout.layer_numbers:
            oracle = analyze_layer(
                layout.layer(n), grid, RULES, window_margin=margin
            )
            got = raster_analyze_layer(
                layout.layer(n), grid, RULES, window_margin=margin
            )
            assert np.array_equal(oracle.lower, got.lower)
            assert np.array_equal(oracle.upper, got.upper)
            assert oracle.fill_regions == got.fill_regions

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_analyze_layout_kernel_switch(self, seed):
        layout, grid = random_layout(seed)
        rect = analyze_layout(layout, grid, window_margin=5, kernel="rect")
        ras = analyze_layout(layout, grid, window_margin=5, kernel="raster")
        assert sorted(rect) == sorted(ras)
        for n in rect:
            assert np.array_equal(rect[n].lower, ras[n].lower)
            assert np.array_equal(rect[n].upper, ras[n].upper)
            assert rect[n].fill_regions == ras[n].fill_regions


class TestFillRegionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_regions_canonical_identical(self, seed):
        layout, grid = random_layout(seed, odd=True)
        layer = layout.layer(1)
        oracle = analyze_layer(layer, grid, RULES, 3, kernel="rect").fill_regions
        got = raster_fill_regions(layer, grid, RULES, window_margin=3)
        # Not just equal areas: the same canonical rect lists in the
        # same order, so candidate tiling downstream is identical.
        assert oracle == got

    @pytest.mark.parametrize("seed", SEEDS)
    def test_usable_area_identical(self, seed):
        layout, grid = random_layout(seed)
        layer = layout.layer(2)
        oracle = analyze_layer(layer, grid, RULES, kernel="rect").fill_regions
        got = raster_fill_regions(layer, grid, RULES)
        for key in oracle:
            assert usable_fill_area(oracle[key], RULES) == usable_fill_area(
                got[key], RULES
            )

    def test_margin_larger_than_window_empties_regions(self):
        layout, grid = random_layout(5, die=400)
        # 4x4 over 400 -> 100-dbu windows; a 60-dbu margin leaves
        # nothing (shrunk() underflows to None).
        got = raster_fill_regions(layout.layer(1), grid, RULES, window_margin=60)
        oracle = analyze_layer(layout.layer(1), grid, RULES, 60, kernel="rect").fill_regions
        assert oracle == got
        assert all(v == [] for v in got.values())


def _bitmap(rects, die):
    """1-dbu occupancy of ``rects`` inside ``die``, indexed ``[x, y]``
    from the die corner."""
    out = np.zeros((die.width, die.height), dtype=bool)
    for r in rects:
        c = r.intersection(die)
        if c is not None:
            out[c.xl - die.xl : c.xh - die.xl, c.yl - die.yl : c.yh - die.yl] = True
    return out


def _window_sums(per_pixel, grid):
    """Sum a per-pixel array of ``grid.die`` over each window."""
    die = grid.die
    xs, ys = window_cuts(grid)
    starts_x = [x - die.xl for x in xs[:-1]]
    starts_y = [y - die.yl for y in ys[:-1]]
    return np.add.reduceat(np.add.reduceat(per_pixel, starts_x, axis=0), starts_y, axis=1)


def _bitmap_area_map(rects, grid):
    """Per-window covered area counted pixel by pixel."""
    return _window_sums(_bitmap(rects, grid.die).astype(np.int64), grid)


def _bitmap_overlay_map(lower, upper, grid):
    """Per-window overlay counted pixel by pixel: the three fill-induced
    terms of ``overlay_area`` summed over each window's pixels."""
    die = grid.die
    lo_wires, lo_fills = _bitmap(lower.wires, die), _bitmap(lower.fills, die)
    hi_wires, hi_fills = _bitmap(upper.wires, die), _bitmap(upper.fills, die)
    per_pixel = (
        (lo_fills & hi_wires).astype(np.int64)
        + (lo_wires & hi_fills)
        + (lo_fills & hi_fills)
    )
    return _window_sums(per_pixel, grid)


class TestOverlayParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_overlay_map_bit_identical(self, seed, odd):
        layout, grid = random_layout(seed, odd=odd)
        numbers = layout.layer_numbers
        for lo, hi in zip(numbers, numbers[1:]):
            lower, upper = layout.layer(lo), layout.layer(hi)
            got = overlay_map(lower, upper, grid)
            assert np.array_equal(got, _bitmap_overlay_map(lower, upper, grid)), (lo, hi)
            if hi != numbers[-1]:  # the top layer is empty on purpose
                assert got.any()

    def test_empty_side_zero(self):
        layout, grid = random_layout(7)
        top = max(layout.layer_numbers)
        out = overlay_map(layout.layer(top - 1), layout.layer(top), grid)
        assert not out.any()
        assert np.array_equal(
            out, _bitmap_overlay_map(layout.layer(top - 1), layout.layer(top), grid)
        )


class TestRawComponentsOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_raw_components_match_sweep_and_bitmap(self, seed, odd):
        # Overlapping wires, fills over wires and over each other: the
        # score's per-window maps must reduce to exactly what the
        # die-wide overlay sweep and 1-dbu density maps give.
        layout, grid = random_layout(seed, odd=odd)
        overlay = sum(overlay_area(lo, hi) for lo, hi in layout.adjacent_pairs())
        sigma = line = outlier = 0.0
        for layer in layout.layers:
            m = compute_metrics(_bitmap_area_map(layer.shapes, grid) / window_area_map(grid))
            sigma += m.sigma
            line += m.line
            outlier += m.outlier
        expect = RawComponents(
            overlay=float(overlay), variation=sigma, line=line, outlier=sigma * outlier
        )
        assert overlay > 0
        assert measure_raw_components(layout, grid) == expect  # field for field


class TestRefreshParity:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_incremental_refresh_matches_fresh_analysis(self, seed, force_kernel):
        layout, grid = random_layout(seed, odd=True)
        margin = 5
        cached = analyze_layout(
            layout, grid, window_margin=margin, kernel="raster"
        )
        rng = random.Random(seed + 1)
        x = rng.randrange(0, layout.die.xh - 200)
        y = rng.randrange(0, layout.die.yh - 200)
        layout.layer(1).add_wire(Rect(x, y, x + 150, y + 40))
        dirty = sorted(grid.windows_touching(Rect(x, y, x + 150, y + 40).expanded(20)))
        force_kernel("raster")  # a partial-column refresh would pick rect
        refreshed = refresh_analysis(
            layout, grid, cached, dirty, layers=[1], window_margin=margin
        )
        fresh = analyze_layout(
            layout, grid, window_margin=margin, kernel="rect"
        )
        got = refreshed[1]
        expect = fresh[1]
        for i, j in dirty:
            assert got.lower[i, j] == expect.lower[i, j]
            assert got.upper[i, j] == expect.upper[i, j]
            assert got.fill_regions[(i, j)] == expect.fill_regions[(i, j)]
        # untouched layers carried over by identity
        assert refreshed[2] is cached[2]
