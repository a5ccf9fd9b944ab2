"""Raster passes vs independent oracles: exact-equality property tests.

Density analysis computes ``lower`` from one covered-area map,
``raster_area_map``, whichever fill-region cutter runs; the cutter
(``kernel="rect"``, one scanline subtraction per window, or
``"raster"``, one tile pass per window column, each window on its own
compressed grid) is the only
thing the kernel choice changes, and the two must return the same
regions: per window, the same int64 box rows in the same order.  The
raster cutter's window edges get cases of their own.  These tests pin
the contract at the function level on randomized layouts, with
``np.array_equal`` and no tolerances: the
area map, ``lower`` and the overlay map against a 1-dbu bitmap, the
clipped-area sum against per-window ``Rect.intersection_area`` sums,
the two cutters against each other (regions, usable areas, ``upper``,
the incremental refresh), and the score's raw components against the
die-wide overlay sweep.  ``tests/core/test_stream_fill.py`` and
``tests/test_differential.py`` force each cutter alone through whole
fills and compare GDSII bytes.
"""

import random

import numpy as np
import pytest

from repro.density import MultiWindowGrid, RawComponents, compute_metrics, measure_raw_components
from repro.density.analysis import (
    analyze_layer,
    analyze_layout,
    fill_density_map,
    overlay_area,
    overlay_map,
    refresh_analysis,
    usable_fill_area,
    window_area_map,
)
from repro.density.raster import (
    clipped_area_map,
    raster_area_map,
    raster_fill_regions,
    window_cuts,
)
from repro.geometry import Rect, boxes, rects_of
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


#: name -> (die, cols, rows): windows that divide the die, odd window
#: counts, and an offset die whose last column and row absorb a remainder
CLIP_GRIDS = {
    "even": (Rect(0, 0, 1200, 1200), 4, 4),
    "odd": (Rect(0, 0, 1215, 1215), 3, 5),
    "remainder": (Rect(-40, 25, 1067, 1118), 4, 3),
}


def _clipped_sums(rects, grid):
    """Per window, the sum of ``Rect.intersection_area`` over the rects."""
    out = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    for i, j, win in grid:
        out[i, j] = sum(r.intersection_area(win) for r in rects)
    return out


def _cut_crossers(seed, grid):
    """Rects near the window cuts, some drawn twice, some past the die."""
    rng = random.Random(seed)
    xs, ys = window_cuts(grid)
    rects = []
    for _ in range(60):
        x, y = rng.choice(xs) + rng.randrange(-90, 60), rng.choice(ys) + rng.randrange(-90, 60)
        rects.append(Rect(x, y, x + rng.randrange(1, 150), y + rng.randrange(1, 150)))
    return rects + rng.sample(rects, 15)


class TestClippedAreaMap:
    """``clipped_area_map`` is the per-window clipped-area *sum*: an
    overlapped point counts once per rect, area past the die not at all."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(CLIP_GRIDS))
    def test_matches_per_window_sums(self, name, seed):
        grid = WindowGrid(*CLIP_GRIDS[name])
        rects = _cut_crossers(seed, grid)
        assert any(len(grid.windows_touching(r)) > 1 for r in rects)
        assert any(r.intersection(grid.die) not in (None, r) for r in rects)
        got = clipped_area_map(boxes(rects, len(rects)), grid)
        assert got.dtype == np.int64
        assert np.array_equal(got, _clipped_sums(rects, grid))
        # overlaps count twice, so the sum exceeds the covered area
        assert (got > raster_area_map(rects, grid)).any()

    @pytest.mark.parametrize("name", sorted(CLIP_GRIDS))
    def test_no_rects(self, name):
        grid = WindowGrid(*CLIP_GRIDS[name])
        got = clipped_area_map(boxes([], 0), grid)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.zeros((grid.cols, grid.rows), dtype=np.int64))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_fill_density_is_the_clipped_sum(self, seed, odd):
        layout, grid = random_layout(seed, odd=odd)
        for layer in layout.layers:
            want = _clipped_sums(layer.fills, grid) / window_area_map(grid)
            assert np.array_equal(fill_density_map(layer, grid), want)


def _subsets(grid):
    """Window subsets of the shapes an analysis is asked for."""
    c, r = grid.cols - 1, grid.rows - 1
    return {
        "scattered": [(0, 0), (c - 1, r), (c, 1)],
        "partial-columns": [(1, 1), (1, 2), (2, 0), (2, r)],
        "duplicate-keys": [(c, r), (0, 2), (c, r), (0, 2), (0, 1)],
        "whole-column": [(2, j) for j in range(grid.rows)],
    }


def _assert_same_regions(got, want):
    """Same window keys and, per window, the same rows in the same order."""
    assert got.keys() == want.keys()
    for key, region in want.items():
        assert np.array_equal(got[key], region), key


def _wanted(grid, windows):
    mask = np.zeros((grid.cols, grid.rows), dtype=bool)
    for key in windows:
        mask[key] = True
    return mask


class TestAnalyzeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("margin", [0, 7])
    def test_layer_bounds_and_regions(self, seed, margin):
        layout, grid = random_layout(seed, odd=bool(seed % 2))
        for n in layout.layer_numbers:
            rect = analyze_layer(
                layout.layer(n), grid, RULES, window_margin=margin, kernel="rect"
            )
            ras = analyze_layer(
                layout.layer(n), grid, RULES, window_margin=margin, kernel="raster"
            )
            assert np.array_equal(rect.lower, ras.lower)
            assert np.array_equal(rect.upper, ras.upper)
            _assert_same_regions(rect.fill_regions, ras.fill_regions)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_analyze_layout_kernel_switch(self, seed):
        layout, grid = random_layout(seed)
        rect = analyze_layout(layout, grid, window_margin=5, kernel="rect")
        ras = analyze_layout(layout, grid, window_margin=5, kernel="raster")
        assert sorted(rect) == sorted(ras)
        for n in rect:
            assert np.array_equal(rect[n].lower, ras[n].lower)
            assert np.array_equal(rect[n].upper, ras[n].upper)
            _assert_same_regions(rect[n].fill_regions, ras[n].fill_regions)


class TestLowerOracle:
    """``lower`` is the wires' covered area over the window area, counted
    by the 1-dbu bitmap, for either cutter and any window subset."""

    @pytest.mark.parametrize("kernel", ["rect", "raster"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lower_is_bitmap_area(self, seed, kernel):
        layout, grid = random_layout(seed, odd=bool(seed % 2))
        aw = window_area_map(grid)
        for layer in layout.layers:
            expect = _bitmap_area_map(layer.wires, grid) / aw
            whole = analyze_layer(layer, grid, RULES, 5, kernel=kernel)
            assert np.array_equal(whole.lower, expect)
            for name, windows in _subsets(grid).items():
                wanted = _wanted(grid, windows)
                got = analyze_layer(layer, grid, RULES, 5, kernel=kernel, windows=windows)
                assert np.array_equal(got.lower, np.where(wanted, expect, 0.0)), name
                assert np.array_equal(got.upper, np.where(wanted, whole.upper, 0.0)), name
                _assert_same_regions(
                    got.fill_regions, {k: whole.fill_regions[k] for k in windows}
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_area_map_window_subsets(self, seed):
        even, grid = random_layout(seed)
        odd, odd_grid = random_layout(seed, odd=True)
        for layout, g in ((even, grid), (even, _phase_grid(even)), (odd, odd_grid)):
            for layer in layout.layers:
                full = raster_area_map(layer.shapes, g)
                for name, windows in _subsets(g).items():
                    got = raster_area_map(layer.shapes, g, windows=windows)
                    assert np.array_equal(got, np.where(_wanted(g, windows), full, 0)), name


class TestFillRegionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_regions_canonical_identical(self, seed):
        layout, grid = random_layout(seed, odd=True)
        layer = layout.layer(1)
        oracle = analyze_layer(layer, grid, RULES, 3, kernel="rect").fill_regions
        got = raster_fill_regions(layer, grid, RULES, window_margin=3)
        # Not just equal areas: the same canonical rects in the same
        # order, so candidate tiling downstream is identical.
        _assert_same_regions(oracle, got)

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
        _assert_same_regions(oracle, got)
        assert all(rects_of(v) == [] for v in got.values())


#: a 3 x 3 grid over it has 202-dbu windows, and its last column and
#: row are 203 dbu: they absorb the division remainder
EDGE_DIE = Rect(0, 0, 607, 607)


def _edge_layer(*wires):
    layer = Layout(EDGE_DIE, 1, RULES).layer(1)
    layer.add_wires(wires)
    return layer, WindowGrid(EDGE_DIE, 3, 3)


def _cut(layer, grid, margin, windows=None):
    """The raster cutter's regions, asserted equal to the scanline's."""
    got = raster_fill_regions(layer, grid, RULES, margin, windows)
    want = analyze_layer(layer, grid, RULES, margin, kernel="rect", windows=windows)
    _assert_same_regions(got, want.fill_regions)
    return got


def _inside(region, frame):
    """Whether every row of ``region`` lies inside ``frame``."""
    lo = (region[:, 0] >= frame.xl) & (region[:, 1] >= frame.yl)
    return bool((lo & (region[:, 2] <= frame.xh) & (region[:, 3] <= frame.yh)).all())


class TestCutterEdges:
    """The window edges the column cutter must respect.

    The raster cutter runs one run extraction and one vertical merge
    over every window of a column at once, so every window edge inside
    the column is a place where it could merge or attribute wrongly.  Each case
    checks it against the scanline cutter and against values that fail
    on a cutter that gets that edge wrong.
    """

    def test_equal_spans_across_a_window_edge_stay_two_rects(self):
        # The bar crosses the cut y = 202 at margin 0: the y-cells on
        # both sides of it have the same free x-spans, and the window
        # edge must break the merge.
        layer, grid = _edge_layer(Rect(60, 150, 80, 260))
        got = _cut(layer, grid, 0)
        assert rects_of(got[(0, 0)]) == [
            Rect(0, 0, 202, 140),
            Rect(0, 140, 50, 202),
            Rect(90, 140, 202, 202),
        ]
        assert rects_of(got[(0, 1)]) == [
            Rect(0, 202, 50, 270),
            Rect(0, 270, 202, 404),
            Rect(90, 202, 202, 270),
        ]

    @pytest.mark.parametrize("margin", [5, 7])
    def test_margin_gap_rows_join_no_region(self, margin):
        layer, grid = _edge_layer(Rect(60, 150, 80, 260), Rect(230, 380, 330, 420))
        got = _cut(layer, grid, margin)
        for (i, j), region in got.items():
            inner = grid.window(i, j).shrunk(margin)
            assert len(region) and _inside(region, inner), (i, j)
        # the wire-free column: each window's region is its inset window
        for j in range(3):
            assert rects_of(got[(2, j)]) == [grid.window(2, j).shrunk(margin)]

    def test_blocked_column_and_wire_free_column(self):
        layer, grid = _edge_layer(Rect(0, 0, 202, 607))
        got = _cut(layer, grid, 0)
        for j in range(3):
            assert got[(0, j)].shape == (0, 4)
            # the bloated block reaches 10 dbu into column 1
            window = grid.window(1, j)
            assert rects_of(got[(1, j)]) == [Rect(212, window.yl, window.xh, window.yh)]
            # column 2 is wire-free, and the last one: one rect per window
            assert rects_of(got[(2, j)]) == [grid.window(2, j)]
        assert grid.window(2, 2) == Rect(404, 404, 607, 607)

    @pytest.mark.parametrize("margin", [0, 5])
    def test_rows_between_requested_windows_stay_unattributed(self, margin):
        layer, grid = _edge_layer(Rect(60, 0, 80, 607), Rect(100, 190, 190, 420))
        whole = _cut(layer, grid, margin)
        got = _cut(layer, grid, margin, windows=[(0, 2), (0, 0)])
        assert sorted(got) == [(0, 0), (0, 2)]
        for key in got:
            assert np.array_equal(got[key], whole[key]), key
        row = grid.window(0, 1)
        for region in got.values():
            assert not ((region[:, 1] < row.yh) & (region[:, 3] > row.yl)).any()

    def test_remainder_column_and_row_cut_like_any_other(self):
        # the same wire shape inside the first window and the last one,
        # which is a dbu wider and taller
        layer, grid = _edge_layer(Rect(30, 40, 60, 150), Rect(434, 444, 464, 554))
        got = _cut(layer, grid, 0)
        shift = 404
        moved = got[(0, 0)] + shift
        last = grid.window(2, 2)
        # every rect ending on the first window's far edges ends one dbu
        # further in the last window
        moved[:, 2:] += (moved[:, 2:] == 202 + shift)
        assert np.array_equal(got[(2, 2)], moved)
        assert _inside(got[(2, 2)], last)


class TestRegionArrays:
    """``fill_regions`` values are read-only ``(k, 4)`` int64 box arrays."""

    @pytest.mark.parametrize("kernel", ["rect", "raster"])
    @pytest.mark.parametrize("margin", [0, 5, 120])
    def test_read_only_int64_boxes(self, kernel, margin):
        layer, grid = _edge_layer(Rect(0, 0, 202, 607), Rect(300, 100, 320, 500))
        for windows in (None, [(1, 2), (0, 1)]):
            regions = analyze_layer(
                layer, grid, RULES, margin, kernel=kernel, windows=windows
            ).fill_regions
            assert any(len(region) == 0 for region in regions.values())
            for key, region in regions.items():
                assert region.dtype == np.int64 and region.shape[1:] == (4,), key
                assert not region.flags.writeable, key
                with pytest.raises(ValueError, match="read-only"):
                    region[:1] = 0

    def test_refresh_leaves_the_cached_arrays_bit_identical(self):
        layout, grid = random_layout(3, odd=True)
        cached = analyze_layout(layout, grid, window_margin=5)
        before = {
            n: (ld.lower.copy(), ld.upper.copy(), {k: v.copy() for k, v in ld.fill_regions.items()})
            for n, ld in cached.items()
        }
        wire = Rect(300, 300, 520, 340)
        layout.layer(1).add_wire(wire)
        dirty = sorted(grid.windows_touching(wire.expanded(20)))
        refreshed = refresh_analysis(layout, grid, cached, dirty, layers=[1], window_margin=5)
        assert any(
            not np.array_equal(refreshed[1].fill_regions[key], before[1][2][key]) for key in dirty
        )
        for n, (lower, upper, regions) in before.items():
            assert np.array_equal(cached[n].lower, lower)
            assert np.array_equal(cached[n].upper, upper)
            _assert_same_regions(cached[n].fill_regions, regions)


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
        # the phase grid's die is smaller than the layout's: shapes
        # cross its edge and only their parts inside count (an odd die
        # has no 2x2 phases)
        for g in (grid,) if odd else (grid, _phase_grid(layout)):
            for lo, hi in zip(numbers, numbers[1:]):
                lower, upper = layout.layer(lo), layout.layer(hi)
                got = overlay_map(lower, upper, g)
                assert np.array_equal(got, _bitmap_overlay_map(lower, upper, g)), (lo, hi)
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
            assert np.array_equal(got.fill_regions[(i, j)], expect.fill_regions[(i, j)])
        # untouched layers carried over by identity
        assert refreshed[2] is cached[2]
