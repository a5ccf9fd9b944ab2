"""Tests for density analysis: maps, fill regions, bounds, overlay."""

import numpy as np
import pytest

from repro.bench.generator import LayoutSpec, generate_layout
from repro.density import (
    analyze_layer,
    analyze_layout,
    fill_density_map,
    fill_overlay_area,
    metal_density_map,
    overlay_area,
    usable_fill_area,
    wire_density_map,
)
from repro.density.analysis import _choose_kernel
from repro.geometry import Rect, union_area
from repro.layout import DrcRules, Layout, WindowGrid

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def make_layout():
    layout = Layout(Rect(0, 0, 400, 400), num_layers=2, rules=RULES)
    return layout, WindowGrid(layout.die, 2, 2)


class TestDensityMaps:
    def test_empty_layer_zero(self):
        layout, grid = make_layout()
        d = wire_density_map(layout.layer(1), grid)
        assert d.shape == (2, 2)
        assert np.all(d == 0.0)

    def test_single_wire_density(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))  # window (0,0) is 200x200
        d = wire_density_map(layout.layer(1), grid)
        assert d[0, 0] == pytest.approx(10000 / 40000)
        assert d[1, 1] == 0.0

    def test_overlapping_wires_not_double_counted(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        layout.layer(1).add_wire(Rect(50, 0, 150, 100))
        d = wire_density_map(layout.layer(1), grid)
        assert d[0, 0] == pytest.approx(15000 / 40000)

    def test_wire_spanning_windows_split(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(150, 0, 250, 100))
        d = wire_density_map(layout.layer(1), grid)
        assert d[0, 0] == pytest.approx(5000 / 40000)
        assert d[1, 0] == pytest.approx(5000 / 40000)

    def test_fill_density_map_separate(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        layout.layer(1).add_fill(Rect(200, 200, 300, 300))
        wd = wire_density_map(layout.layer(1), grid)
        fd = fill_density_map(layout.layer(1), grid)
        md = metal_density_map(layout.layer(1), grid)
        assert fd[1, 1] == pytest.approx(0.25)
        assert fd[0, 0] == 0.0
        assert np.allclose(md, wd + fd)


class TestFillRegions:
    def test_empty_window_fully_free(self):
        layout, grid = make_layout()
        regions = analyze_layer(layout.layer(1), grid, RULES).fill_regions
        assert union_area(regions[(0, 0)]) == 40000

    def test_wire_bloated_by_spacing(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(50, 50, 150, 150))
        regions = analyze_layer(layout.layer(1), grid, RULES).fill_regions
        free = union_area(regions[(0, 0)])
        # Window minus wire grown by sm=10 on all sides.
        assert free == 40000 - 120 * 120
        for r in regions[(0, 0)]:
            assert r.euclidean_gap(Rect(50, 50, 150, 150)) >= 10

    def test_window_margin_insets(self):
        layout, grid = make_layout()
        regions = analyze_layer(layout.layer(1), grid, RULES, 5).fill_regions
        assert union_area(regions[(0, 0)]) == 190 * 190

    def test_wire_from_next_window_bloats_across(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(205, 0, 300, 200))  # window (1,0)
        regions = analyze_layer(layout.layer(1), grid, RULES).fill_regions
        # Its bloat reaches 5 dbu into window (0,0).
        assert union_area(regions[(0, 0)]) == 40000 - 5 * 200


class TestUsableArea:
    def test_narrow_slivers_excluded(self):
        region = [Rect(0, 0, 5, 100), Rect(10, 0, 60, 100)]
        assert usable_fill_area(region, RULES) == 5000

    def test_small_area_pieces_excluded(self):
        region = [Rect(0, 0, 12, 12)]  # 144 < min_area 200
        assert usable_fill_area(region, RULES) == 0


class TestBounds:
    def test_lower_upper_relation(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 150, 150))
        ld = analyze_layer(layout.layer(1), grid, RULES)
        assert np.all(ld.lower <= ld.upper + 1e-12)
        assert ld.layer_number == 1

    def test_case1_detection(self):
        layout, grid = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 60, 60))
        ld = analyze_layer(layout.layer(1), grid, RULES)
        # Plenty of free space everywhere: no constrained window.
        assert not ld.has_constrained_window
        assert ld.max_lower == pytest.approx(3600 / 40000)

    def test_case2_detection_eqn7(self):
        layout, grid = make_layout()
        # Window (0,0): dense wires -> high lower bound.
        layout.layer(1).add_wire(Rect(0, 0, 180, 180))
        # Window (1,1): mostly blocked by many separate wires with gaps
        # too small for fills -> low upper bound.
        for k in range(10):
            layout.layer(1).add_wire(Rect(205 + k * 19, 200, 205 + k * 19 + 7, 400))
        ld = analyze_layer(layout.layer(1), grid, RULES)
        assert ld.has_constrained_window

    def test_analyze_layout_covers_all_layers(self):
        layout, grid = make_layout()
        result = analyze_layout(layout, grid)
        assert sorted(result) == [1, 2]


VERTICAL = [Rect(10, 0, 20, 300), Rect(50, 0, 60, 300), Rect(0, 0, 100, 10)]
HORIZONTAL = [Rect(0, 10, 300, 20), Rect(0, 50, 300, 60), Rect(0, 0, 10, 100)]


class TestKernelChoice:
    """Which kernel ``analyze_layer`` runs when none is named."""

    @pytest.mark.parametrize(
        "wires, windows, expected",
        [
            pytest.param(VERTICAL, None, "raster", id="vertical"),
            pytest.param(VERTICAL, [(1, 0), (1, 1)], "raster", id="vertical-band"),
            pytest.param(HORIZONTAL, None, "rect", id="horizontal"),
            pytest.param(VERTICAL, [(0, 0), (1, 1)], "rect", id="partial-columns"),
            pytest.param([], None, "rect", id="empty"),
        ],
    )
    def test_choice(self, wires, windows, expected):
        layout, grid = make_layout()
        layout.layer(1).add_wires(wires)
        assert _choose_kernel(layout.layer(1), grid, windows) == expected

    def test_default_analysis_rasters_the_vertical_layer_only(self, monkeypatch):
        from repro.density import raster

        calls = []
        real = raster.raster_analyze_layer

        def counting(layer, *args, **kwargs):
            calls.append(layer.number)
            return real(layer, *args, **kwargs)

        monkeypatch.setattr(raster, "raster_analyze_layer", counting)
        # the generator routes odd layers horizontally, even ones vertically
        spec = LayoutSpec(name="k", die_size=1600, seed=7, num_cell_rects=120, rules=RULES)
        layout = generate_layout(spec)
        assert layout.num_layers == 3
        analyze_layout(layout, WindowGrid(layout.die, 4, 4))
        assert calls == [2]


class TestOverlay:
    def test_no_fills_no_overlay(self):
        layout, _ = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        layout.layer(2).add_wire(Rect(0, 0, 100, 100))
        assert overlay_area(layout.layer(1), layout.layer(2)) == 0

    def test_fill_over_wire_counts(self):
        layout, _ = make_layout()
        layout.layer(2).add_wire(Rect(0, 0, 100, 100))
        layout.layer(1).add_fill(Rect(50, 50, 150, 150))
        assert overlay_area(layout.layer(1), layout.layer(2)) == 2500

    def test_wire_under_fill_counts(self):
        layout, _ = make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        layout.layer(2).add_fill(Rect(50, 50, 150, 150))
        assert overlay_area(layout.layer(1), layout.layer(2)) == 2500

    def test_fill_fill_counts_once(self):
        layout, _ = make_layout()
        layout.layer(1).add_fill(Rect(0, 0, 100, 100))
        layout.layer(2).add_fill(Rect(50, 50, 150, 150))
        assert overlay_area(layout.layer(1), layout.layer(2)) == 2500

    def test_combined_no_double_count(self):
        layout, _ = make_layout()
        layout.layer(1).add_fill(Rect(0, 0, 100, 100))
        layout.layer(2).add_wire(Rect(0, 0, 60, 100))
        layout.layer(2).add_fill(Rect(60, 0, 100, 100))
        # Fill-vs-wire 6000 + fill-vs-fill 4000.
        assert overlay_area(layout.layer(1), layout.layer(2)) == 10000

    def test_layout_level_pairs(self):
        layout = Layout(Rect(0, 0, 400, 400), num_layers=3, rules=RULES)
        layout.layer(1).add_fill(Rect(0, 0, 100, 100))
        layout.layer(2).add_fill(Rect(0, 0, 100, 100))
        result = fill_overlay_area(layout, WindowGrid(layout.die, 2, 2))
        assert list(result) == [(1, 2), (2, 3)]
        assert result[(1, 2)].tolist() == [[10000, 0], [0, 0]]
        assert not result[(2, 3)].any()
