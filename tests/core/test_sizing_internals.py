"""Unit tests for the scalar sizing oracle's internals: slopes, repair bounds, culling."""

from repro.geometry import Rect
from repro.layout import DrcRules

from .sizing_oracle import (
    _achievable_gap_x,
    _Fill,
    _overlay_slopes,
    _prelegalize,
    _transpose,
)

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


class TestTranspose:
    def test_involution(self):
        r = Rect(1, 2, 7, 11)
        assert _transpose(_transpose(r)) == r

    def test_swaps_axes(self):
        assert _transpose(Rect(1, 2, 7, 11)) == Rect(2, 1, 11, 7)


class TestOverlaySlopes:
    def test_no_neighbors(self):
        assert _overlay_slopes(Rect(0, 0, 50, 50), []) == (0, 0)

    def test_full_cover_both_edges(self):
        fill = Rect(10, 10, 60, 60)
        cover = [Rect(0, 0, 100, 100)]
        sl, sr = _overlay_slopes(fill, cover)
        assert sl == 50  # full fill height at each edge
        assert sr == 50

    def test_right_half_cover(self):
        fill = Rect(0, 0, 100, 40)
        neighbor = [Rect(50, 0, 200, 40)]  # covers the right part
        sl, sr = _overlay_slopes(fill, neighbor)
        assert sr == 40  # right edge inside the neighbour
        assert sl == 0  # left edge is left of the neighbour

    def test_interior_neighbor_no_slope(self):
        # Neighbour strictly inside the fill: moving either edge by an
        # epsilon changes nothing (the plateau case).
        fill = Rect(0, 0, 100, 40)
        neighbor = [Rect(40, 0, 60, 40)]
        assert _overlay_slopes(fill, neighbor) == (0, 0)

    def test_partial_height_overlap(self):
        fill = Rect(0, 0, 100, 100)
        neighbor = [Rect(50, 20, 200, 60)]  # 40 tall overlap
        sl, sr = _overlay_slopes(fill, neighbor)
        assert sr == 40
        assert sl == 0

    def test_slopes_accumulate(self):
        fill = Rect(0, 0, 100, 100)
        neighbors = [Rect(50, 0, 200, 30), Rect(50, 60, 200, 100)]
        sl, sr = _overlay_slopes(fill, neighbors)
        assert sr == 30 + 40

    def test_disjoint_in_y_no_slope(self):
        fill = Rect(0, 0, 100, 40)
        neighbor = [Rect(0, 100, 100, 140)]
        assert _overlay_slopes(fill, neighbor) == (0, 0)


class TestAchievableGap:
    def test_wide_fills_can_separate(self):
        a = Rect(0, 0, 100, 50)
        b = Rect(100, 0, 200, 50)  # abutting
        # Each can shrink to width 10 -> gap up to 180.
        assert _achievable_gap_x(a, b, RULES) == 180

    def test_minimum_fills_cannot(self):
        a = Rect(0, 0, 20, 10)
        b = Rect(20, 0, 40, 10)
        # min width at height 10 is max(10, 200/10)=20: no slack at all.
        assert _achievable_gap_x(a, b, RULES) == 0

    def test_order_independent(self):
        a = Rect(0, 0, 100, 50)
        b = Rect(120, 0, 180, 50)
        assert _achievable_gap_x(a, b, RULES) == _achievable_gap_x(b, a, RULES)


class TestPrelegalize:
    def test_clean_set_untouched(self):
        fills = [
            _Fill(1, Rect(0, 0, 50, 50)),
            _Fill(1, Rect(100, 100, 150, 150)),
        ]
        assert _prelegalize(fills, RULES) == 0
        assert all(f.alive for f in fills)

    def test_overlapping_pair_drops_smaller(self):
        fills = [
            _Fill(1, Rect(0, 0, 80, 80)),
            _Fill(1, Rect(40, 40, 90, 90)),
        ]
        dropped = _prelegalize(fills, RULES)
        assert dropped == 1
        assert fills[0].alive  # the bigger one survives
        assert not fills[1].alive

    def test_repairable_pair_kept(self):
        fills = [
            _Fill(1, Rect(0, 0, 80, 50)),
            _Fill(1, Rect(85, 0, 165, 50)),  # gap 5, repairable
        ]
        assert _prelegalize(fills, RULES) == 0

    def test_cross_layer_pairs_ignored(self):
        fills = [
            _Fill(1, Rect(0, 0, 80, 80)),
            _Fill(2, Rect(0, 0, 80, 80)),  # same spot, other layer
        ]
        assert _prelegalize(fills, RULES) == 0

    def test_unrepairable_diagonal_dropped(self):
        tight = DrcRules(
            min_spacing=60,
            min_width=40,
            min_area=1600,
            max_fill_width=45,
            max_fill_height=45,
        )
        fills = [
            _Fill(1, Rect(0, 0, 45, 45)),
            _Fill(1, Rect(50, 50, 95, 95)),  # diagonal gap ~7
        ]
        assert _prelegalize(fills, tight) == 1
