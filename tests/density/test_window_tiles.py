"""The per-window tile pass against the window-column strip raster.

``covered_area_map`` and ``raster_fill_regions`` rasterize each window
on its own compressed grid (``repro.geometry.tile_runs``), one window
column per call.  ``strip_oracle`` keeps the strip raster they replace,
which crossed every x-line of a whole column with every y-line of it.
These tests hold the tile pass to that oracle with ``np.array_equal``:
the same covered area per window, and per window the same region rows
in the same order, on seeded layouts over even, odd and phase grids,
at several margins and window subsets, and on the edge cases of
clipping.  ``tile_runs`` itself is held to a 1-dbu bitmap per frame.
"""

import random

import numpy as np
import pytest

from repro.density import MultiWindowGrid
from repro.density.raster import covered_area_map, raster_fill_regions, window_cuts
from repro.geometry import Rect, tile_runs
from repro.layout import DrcRules, Layout, WindowGrid

from .strip_oracle import strip_area_map, strip_cells, strip_fill_regions

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)

SEEDS = [5, 23, 71]

MARGINS = [0, 5, 7, 60]


def _start(rng, cuts, size, limit):
    """A start coordinate for a shape of ``size``: a third of them put
    an edge exactly on a window cut."""
    roll = rng.random()
    if roll < 1 / 6:
        return rng.choice(cuts[:-1])
    if roll < 1 / 3:
        return rng.choice(cuts[1:]) - size
    return rng.randrange(0, limit - size)


def _layout(seed, grid_of, die=(1200, 1000)):
    """Two layers of uneven wires and fills, and an empty third.

    A third of the shapes have an edge on a window cut of the grid
    ``grid_of(layout)``, some wires are drawn twice with a small shift
    (overlapping), and fills land over wires and each other.
    """
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, *die), num_layers=3, rules=RULES)
    grid = grid_of(layout)
    xs, ys = window_cuts(grid)
    for n in (1, 2):
        layer = layout.layer(n)
        for size, count, add in ((130, 80, layer.add_wire), (90, 30, layer.add_fill)):
            for _ in range(count):
                w, h = rng.randrange(1 if size > 100 else 10, size), rng.randrange(1, size)
                x = _start(rng, [x for x in xs if x < die[0] - w], w, die[0])
                y = _start(rng, [y for y in ys if y < die[1] - h], h, die[1])
                rect = Rect(x, y, x + w, y + h)
                add(rect)
                if add is layer.add_wire and rng.random() < 0.2:
                    dx, dy = rng.randrange(10), rng.randrange(10)
                    add(Rect(x + dx, y + dy, x + dx + w, y + dy + h))
    return layout, grid


def _phase(layout):
    """The last 2x2 phase of a 6x5 grid: its die is smaller than the
    layout's, so shapes cross its edge or lie past it."""
    *_, (a, b, grid) = MultiWindowGrid(WindowGrid(layout.die, 6, 5), 2).phases()
    assert (a, b) == (1, 1) and grid.die != layout.die
    return grid


#: name -> (layout die, grid builder): windows that divide the die, a
#: die whose last column and row absorb a remainder, and a phase grid
GRIDS = {
    "even": ((1200, 1000), lambda layout: WindowGrid(layout.die, 6, 5)),
    "odd": ((1213, 1009), lambda layout: WindowGrid(layout.die, 4, 3)),
    "phase": ((1200, 1000), _phase),
}


def _make(name, seed):
    die, grid_of = GRIDS[name]
    return _layout(seed, grid_of, die)


def _assert_same_regions(got, want):
    """Same window keys in the same order and, per window, the same rows
    in the same order, each a read-only int64 ``(k, 4)`` array."""
    assert list(got) == list(want)
    for key, region in want.items():
        assert got[key].dtype == np.int64 and got[key].shape[1:] == (4,), key
        assert not got[key].flags.writeable, key
        assert np.array_equal(got[key], region), key


def _metal(layer):
    return np.concatenate((layer.wire_boxes, layer.fill_boxes))


class TestAreaMaps:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_strip(self, name, seed):
        layout, grid = _make(name, seed)
        xs, ys = window_cuts(grid)
        wires = layout.layer(1).wire_boxes
        assert np.isin(wires[:, 0::2], xs).any() and np.isin(wires[:, 1::2], ys).any()
        die = grid.die
        past = (wires[:, :2] < (die.xl, die.yl)) | (wires[:, 2:] > (die.xh, die.yh))
        assert past.any() or name != "phase"
        for layer in layout.layers:
            for box in (layer.wire_boxes, _metal(layer)):
                got = covered_area_map(box, grid)
                assert got.dtype == np.int64
                assert np.array_equal(got, strip_area_map(box, grid)), layer.number
        assert covered_area_map(layout.layer(1).wire_boxes, grid).any()

    def test_overlaps_count_once(self):
        grid = WindowGrid(Rect(0, 0, 400, 400), 2, 2)
        box = np.array(
            [[10, 10, 110, 60], [10, 10, 110, 60], [60, 30, 250, 90], [150, 50, 260, 260]],
            dtype=np.int64,
        )
        got = covered_area_map(box, grid)
        assert np.array_equal(got, strip_area_map(box, grid))
        # window (0, 0): the first, third and fourth shapes clipped to
        # it, less the two overlaps among them
        assert got[0, 0] == 100 * 50 + 140 * 60 + 50 * 150 - 50 * 30 - 50 * 40
        assert got.sum() == int(np.count_nonzero(_paint(box, 400, 400)))

    def test_rects_that_vanish_when_clipped(self):
        # zero width or height, past the die on every side, and a rect
        # that only touches a window along its edge
        grid = WindowGrid(Rect(100, 100, 500, 500), 2, 2)
        box = np.array(
            [
                [150, 150, 150, 250],
                [150, 260, 250, 260],
                [0, 0, 100, 600],
                [500, 120, 700, 180],
                [120, 500, 180, 640],
                [20, 20, 90, 90],
                [300, 120, 360, 300],
                [240, 300, 300, 380],
            ],
            dtype=np.int64,
        )
        got = covered_area_map(box, grid)
        assert np.array_equal(got, strip_area_map(box, grid))
        assert np.array_equal(got, [[0, 60 * 80], [60 * 180, 0]])

    def test_empty(self):
        layout, grid = _make("odd", 1)
        top = layout.layer(3)
        assert not len(top.wire_boxes) and not len(top.fill_boxes)
        for windows in (None, [], [(0, 0), (3, 2)]):
            got = covered_area_map(top.wire_boxes, grid, windows=windows)
            assert np.array_equal(got, np.zeros((grid.cols, grid.rows), dtype=np.int64))


def _paint(box, width, height):
    """1-dbu cover of ``box`` over ``[0, width) x [0, height)``."""
    out = np.zeros((width, height), dtype=bool)
    for xl, yl, xh, yh in box.tolist():
        out[max(xl, 0) : max(xh, 0), max(yl, 0) : max(yh, 0)] = True
    return out


class TestFillRegions:
    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_strip(self, name, seed, margin):
        layout, grid = _make(name, seed)
        for layer in layout.layers:
            got = raster_fill_regions(layer, grid, RULES, margin)
            _assert_same_regions(got, strip_fill_regions(layer, grid, RULES, margin))

    @pytest.mark.parametrize("margin", [0, 60])
    def test_empty_layer_one_frame_per_window(self, margin):
        layout, grid = _make("odd", 2)
        got = raster_fill_regions(layout.layer(3), grid, RULES, margin)
        _assert_same_regions(got, strip_fill_regions(layout.layer(3), grid, RULES, margin))
        for (i, j), region in got.items():
            assert region.tolist() == [list(grid.window(i, j).shrunk(margin))]

    def test_margin_leaves_only_the_remainder_windows(self):
        # 120-dbu windows and a 121-dbu last column and row: a 60-dbu
        # margin empties every window but the corner one
        layout, grid = _layout(9, lambda layout: WindowGrid(layout.die, 9, 9), (1081, 1081))
        for layer in layout.layers:
            got = raster_fill_regions(layer, grid, RULES, 60)
            _assert_same_regions(got, strip_fill_regions(layer, grid, RULES, 60))
            assert all(not len(got[key]) for key in got if key != (8, 8))

    def test_edges_on_window_cuts(self):
        # wires whose bloated edges land exactly on window cuts, and one
        # free x-span that runs across a margin-0 window edge
        layout = Layout(Rect(0, 0, 600, 600), num_layers=1, rules=RULES)
        grid = WindowGrid(layout.die, 3, 3)
        layer = layout.layer(1)
        layer.add_wires([Rect(10, 10, 190, 390), Rect(410, 210, 590, 600), Rect(250, 0, 300, 600)])
        for margin in MARGINS:
            got = raster_fill_regions(layer, grid, RULES, margin)
            _assert_same_regions(got, strip_fill_regions(layer, grid, RULES, margin))
        got = raster_fill_regions(layer, grid, RULES, 0)
        assert got[(0, 0)].shape == got[(0, 1)].shape == (0, 4)
        assert got[(0, 2)].tolist() == [[0, 400, 200, 600]]
        assert got[(1, 0)].tolist() == [[200, 0, 240, 200], [310, 0, 400, 200]]
        assert got[(1, 1)].tolist() == [[200, 200, 240, 400], [310, 200, 400, 400]]


def _subsets(grid):
    c, r = grid.cols - 1, grid.rows - 1
    return {
        "scattered": [(0, 0), (c - 1, r), (c, 1)],
        "duplicate-keys": [(c, r), (0, r - 1), (c, r), (0, r - 1), (0, 0)],
        "partial-columns": [(1, 1), (1, r), (c, 0), (c, r - 1)],
    }


class TestWindowSubsets:
    @pytest.mark.parametrize("margin", [0, 7])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_strip(self, name, margin):
        layout, grid = _make(name, 3)
        for layer in layout.layers:
            whole = covered_area_map(_metal(layer), grid)
            for subset, windows in _subsets(grid).items():
                got = covered_area_map(_metal(layer), grid, windows=windows)
                assert np.array_equal(got, strip_area_map(_metal(layer), grid, windows=windows))
                wanted = np.zeros(got.shape, dtype=bool)
                wanted[tuple(np.array(windows).T)] = True
                assert np.array_equal(got, np.where(wanted, whole, 0)), subset
                regions = raster_fill_regions(layer, grid, RULES, margin, windows)
                _assert_same_regions(
                    regions, strip_fill_regions(layer, grid, RULES, margin, windows)
                )

    def test_no_windows(self):
        layout, grid = _make("even", 4)
        layer = layout.layer(1)
        assert not covered_area_map(layer.wire_boxes, grid, windows=[]).any()
        assert raster_fill_regions(layer, grid, RULES, 5, []) == {}


class TestLocality:
    """A window's area and region read only the shapes inside it."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("margin", [0, 5])
    def test_wire_two_rows_up_changes_nothing(self, seed, margin):
        layout, grid = _make("even", seed)
        rng = random.Random(seed)
        layer = layout.layer(1)
        before_area = covered_area_map(layer.wire_boxes, grid)
        before = raster_fill_regions(layer, grid, RULES, margin)
        i, j = rng.randrange(grid.cols), rng.randrange(grid.rows - 2)
        win = grid.window(i, j + 2)
        wire = Rect(win.xl + 20, win.yl + 30, win.xh - 40, win.yl + 70)
        layer.add_wire(wire)
        after_area = covered_area_map(layer.wire_boxes, grid)
        after = raster_fill_regions(layer, grid, RULES, margin)
        assert after_area[i, j + 2] > before_area[i, j + 2]
        assert not np.array_equal(after[(i, j + 2)], before[(i, j + 2)])
        assert after_area[i, j] == before_area[i, j]
        assert np.array_equal(after[(i, j)], before[(i, j)])
        assert after_area[i, j] == strip_area_map(layer.wire_boxes, grid)[i, j]

    def test_tiles_hold_fewer_cells_than_strips(self):
        layout, grid = _make("even", 5)
        box = _metal(layout.layer(1))
        xs, ys = (np.asarray(c, dtype=np.int64) for c in window_cuts(grid))
        strip = sum(strip_cells(box, xs[i : i + 2], ys) for i in range(grid.cols))
        tiles = sum(
            strip_cells(box, xs[i : i + 2], ys[j : j + 2])
            for i in range(grid.cols)
            for j in range(grid.rows)
        )
        assert tiles < strip


def _random_frames(rng, count):
    """``count`` frames, some of them equal, and rects clipped inside
    them, with the frame of each."""
    frames = []
    for _ in range(count):
        x, y = rng.randrange(-50, 50), rng.randrange(-50, 50)
        frames.append([x, y, x + rng.randrange(1, 40), y + rng.randrange(1, 40)])
    frames.append(list(frames[0]))
    rects, where = [], []
    for f, (fx0, fy0, fx1, fy1) in enumerate(frames):
        for _ in range(rng.randrange(0, 6)):
            x0, y0 = rng.randrange(fx0, fx1), rng.randrange(fy0, fy1)
            rects.append([x0, y0, rng.randrange(x0 + 1, fx1 + 1), rng.randrange(y0 + 1, fy1 + 1)])
            where.append(f)
    return (
        np.array(rects, dtype=np.int64).reshape(-1, 4),
        np.array(where, dtype=np.int64),
        np.array(frames, dtype=np.int64),
    )


class TestTileRuns:
    """``tile_runs`` against a 1-dbu bitmap of each frame."""

    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_runs_paint_each_frame(self, seed, free):
        box, where, frames = _random_frames(random.Random(seed), 5)
        runs, frame = tile_runs(box, where, frames, free=free)
        assert runs.dtype == np.int64 and frame.dtype.kind == "i"
        order = np.lexsort((runs[:, 0], runs[:, 1], frame))
        assert np.array_equal(order, np.arange(len(runs)))
        for f, (fx0, fy0, fx1, fy1) in enumerate(frames.tolist()):
            shift = np.array([fx0, fy0, fx0, fy0])
            want = _paint(box[where == f] - shift, fx1 - fx0, fy1 - fy0)
            if free:
                want = ~want
            mine = runs[frame == f] - shift
            painted = np.zeros(want.shape, dtype=np.int64)
            for xl, yl, xh, yh in mine.tolist():
                painted[xl:xh, yl:yh] += 1
            assert np.array_equal(painted, want), f
            # one y-cell tall, and maximal: no run of a y-cell starts
            # where another of it ends
            ends = {(xh, yl, yh) for _, yl, xh, yh in mine.tolist()}
            assert not any((xl, yl, yh) in ends for xl, yl, _, yh in mine.tolist())
            # and one y-cell tall: no y-line of the frame's grid inside
            edges = (box[where == f] - shift)[:, 1::2].ravel()
            lines = np.unique(np.concatenate(([0, fy1 - fy0], edges)))
            for _, yl, _, yh in mine.tolist():
                assert np.searchsorted(lines, yh) == np.searchsorted(lines, yl) + 1
