"""Tests for the ECO incremental re-fill flow."""

import random
import re

import pytest

from repro.core import DummyFillEngine, FillConfig
from repro.eco import affected_windows, apply_eco, rip_up_mask
from repro.geometry import Rect, boxes
from repro.layout import DrcRules, Layout, WindowGrid

from .eco_oracle import rips_up

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def filled_layout(seed=9):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 1200, 1200), num_layers=2, rules=RULES, name="eco")
    for n in layout.layer_numbers:
        for _ in range(40):
            x, y = rng.randrange(0, 1100), rng.randrange(0, 1150)
            layout.layer(n).add_wire(
                Rect(x, y, min(1200, x + 90), min(1200, y + 30))
            )
    grid = WindowGrid(layout.die, 4, 4)
    DummyFillEngine(FillConfig()).run(layout, grid)
    return layout, grid


class TestAffectedWindows:
    def test_single_window_change(self):
        _, grid = filled_layout()
        affected = affected_windows(grid, {1: [Rect(50, 50, 120, 80)]}, halo=15)
        assert affected == {(0, 0)}

    def test_boundary_change_spreads(self):
        _, grid = filled_layout()
        # A wire at the window boundary (x=300) affects both sides.
        affected = affected_windows(grid, {1: [Rect(295, 50, 305, 80)]}, halo=15)
        assert (0, 0) in affected and (1, 0) in affected

    def test_no_wires_no_windows(self):
        _, grid = filled_layout()
        assert affected_windows(grid, {1: []}, halo=15) == set()


def _ripup_fills(grid, rng):
    """Fills inside windows, on window edges and corners, on the die
    edge, across it and wholly outside it, zero-width ones included."""
    die = grid.die
    xs = [die.xl + i * grid.window_width for i in range(grid.cols)] + [die.xh]
    ys = [die.yl + j * grid.window_height for j in range(grid.rows)] + [die.yh]
    fills = []
    for _ in range(60):
        x, y = rng.randrange(die.xl - 80, die.xh + 80), rng.randrange(die.yl - 80, die.yh + 80)
        fills.append(Rect(x, y, x + rng.randrange(0, 60), y + rng.randrange(0, 60)))
    for x in xs:
        for y in ys:
            w, h = rng.randrange(0, 20), rng.randrange(0, 20)
            fills += [
                Rect(x - w, y - h, x, y),  # corner from below-left
                Rect(x, y, x + w, y + h),  # corner from above-right
                Rect(x - w, y + 3, x, y + 3 + h),  # left of a vertical cut
                Rect(x + 3, y, x + 3 + w, y + h),  # above a horizontal cut
                Rect(x + 1, y + 1, x + 1 + w, y + 1 + h),  # clear of the corner
            ]
    fills += [
        Rect(die.xl - 30, die.yl - 30, die.xl - 1, die.yl - 1),  # wholly outside
        Rect(die.xh + 1, die.yl, die.xh + 40, die.yh),
        Rect(die.xl - 40, die.yh, die.xh + 40, die.yh + 40),  # on the die's top edge
    ]
    return fills


class TestRipUpRule:
    """``rip_up_mask`` over a fill box array is the scalar rule
    ``rips_up`` applied fill by fill."""

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_scalar_rule(self, seed):
        rng = random.Random(seed)
        x, y = rng.randrange(-500, 500), rng.randrange(-500, 500)
        die = Rect(x, y, x + rng.randrange(400, 1300), y + rng.randrange(400, 1300))
        grid = WindowGrid(die, rng.randint(1, 6), rng.randint(1, 6))
        keys = [(i, j) for i in range(grid.cols) for j in range(grid.rows)]
        fills = _ripup_fills(grid, rng)
        box = boxes(fills, len(fills))
        for affected in (set(), set(keys), set(rng.sample(keys, rng.randint(1, len(keys))))):
            got = rip_up_mask(grid, affected, box).tolist()
            assert got == [rips_up(grid, affected, f) for f in fills], affected
            if not affected:
                assert not any(got)

    def test_closed_box_contact(self):
        grid = WindowGrid(Rect(0, 0, 100, 100), 2, 2)
        # window (1, 1) is [50, 100] x [50, 100]
        fills = [Rect(40, 40, 50, 50), Rect(45, 50, 49, 60), Rect(50, 0, 60, 50), Rect(0, 60, 49, 70)]
        got = rip_up_mask(grid, {(1, 1)}, boxes(fills, len(fills))).tolist()
        assert got == [True, False, True, False]


class TestApplyEco:
    def test_wire_committed(self):
        layout, grid = filled_layout()
        before = layout.layer(1).num_wires
        apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert layout.layer(1).num_wires == before + 1

    def test_result_is_drc_clean(self):
        layout, grid = filled_layout()
        apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert layout.check_drc() == []

    def test_untouched_windows_stable(self):
        layout, grid = filled_layout()
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        untouched = [
            grid.window(i, j)
            for i in range(grid.cols)
            for j in range(grid.rows)
            if (i, j) not in report.affected_windows
        ]
        reference, ref_grid = filled_layout()
        for layer in layout.layers:
            ref_fills = set(reference.layer(layer.number).fills)
            for win in untouched:
                for fill in layer.fills:
                    if win.contains(fill):
                        assert fill in ref_fills

    def test_rip_up_counts(self):
        layout, grid = filled_layout()
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert report.removed_fills > 0
        assert report.new_fills > 0
        assert report.affected_windows
        assert "ECO:" in report.summary()

    def test_affected_windows_refilled_near_target(self):
        layout, grid = filled_layout()
        from repro.density import metal_density_map

        before = metal_density_map(layout.layer(1), grid)
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        after = metal_density_map(layout.layer(1), grid)
        for (i, j) in report.affected_windows:
            # Refilled windows stay within quantisation of their old
            # density (the new wire itself adds some).
            assert abs(float(after[i, j]) - float(before[i, j])) < 0.15

    def test_escaping_wire_rejected(self):
        layout, grid = filled_layout()
        with pytest.raises(ValueError):
            apply_eco(layout, grid, {1: [Rect(1100, 1100, 1300, 1300)]})

    def test_multi_layer_change(self):
        layout, grid = filled_layout()
        report = apply_eco(
            layout,
            grid,
            {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]},
        )
        assert report.new_wires == 2
        assert layout.check_drc() == []

    def test_empty_change_noop(self):
        layout, grid = filled_layout()
        fills_before = layout.num_fills
        report = apply_eco(layout, grid, {})
        assert report.removed_fills == 0
        assert report.new_fills == 0
        assert layout.num_fills == fills_before


# ----------------------------------------------------------------------
# Session-cache path: cached analysis/fill indexes vs the cold rescan path
# ----------------------------------------------------------------------


class TestCachedEco:
    WIRE = {1: [Rect(50, 50, 250, 90)]}
    WIRE2 = {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]}

    @staticmethod
    def _analysis(layout, grid, config):
        from repro.density.analysis import analyze_layout

        return analyze_layout(
            layout,
            grid,
            window_margin=config.effective_margin(layout.rules.min_spacing),
        )

    def test_cached_path_byte_identical_to_cold(self):
        from repro.eco import build_fill_indexes
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        cold, cold_grid = filled_layout()
        apply_eco(cold, cold_grid, self.WIRE, config)

        cached, grid = filled_layout()
        report = apply_eco(
            cached,
            grid,
            self.WIRE,
            config,
            analysis=self._analysis(cached, grid, config),
            fill_indexes=build_fill_indexes(cached),
        )
        assert gdsii_bytes(cached) == gdsii_bytes(cold)
        assert report.analysis is not None

    def test_refreshed_analysis_matches_global_reanalysis(self):
        import numpy as np

        from repro.density.analysis import analyze_layout

        config = FillConfig()
        layout, grid = filled_layout()
        report = apply_eco(
            layout, grid, self.WIRE, config, analysis=self._analysis(layout, grid, config)
        )
        fresh = analyze_layout(
            layout,
            grid,
            window_margin=config.effective_margin(layout.rules.min_spacing),
        )
        for number, expect in fresh.items():
            got = report.analysis[number]
            assert np.array_equal(got.lower, expect.lower)
            assert np.array_equal(got.upper, expect.upper)
            assert got.fill_regions.keys() == expect.fill_regions.keys()
            for key, region in expect.fill_regions.items():
                assert np.array_equal(got.fill_regions[key], region)

    def test_chained_cached_ecos_stay_identical(self):
        from repro.eco import build_fill_indexes
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        cold, cold_grid = filled_layout()
        apply_eco(cold, cold_grid, self.WIRE, config)
        apply_eco(cold, cold_grid, self.WIRE2, config)

        cached, grid = filled_layout()
        first = apply_eco(
            cached,
            grid,
            self.WIRE,
            config,
            analysis=self._analysis(cached, grid, config),
            fill_indexes=build_fill_indexes(cached),
        )
        # second patch runs entirely off the refreshed analysis
        apply_eco(
            cached,
            grid,
            self.WIRE2,
            config,
            analysis=first.analysis,
            fill_indexes=build_fill_indexes(cached),
        )
        assert gdsii_bytes(cached) == gdsii_bytes(cold)

    def test_zero_area_wire_rejected_before_commit(self):
        # a degenerate wire on a later layer must fail the change before
        # the earlier layer's wire reaches the layout
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        layout, grid = filled_layout()
        before = gdsii_bytes(layout)
        bad = {1: [Rect(100, 100, 400, 140)], 2: [Rect(500, 500, 500, 900)]}
        with pytest.raises(ValueError, match=r"\(500,500\)-\(500,900\) on layer 2 has zero area"):
            apply_eco(layout, grid, bad, config)
        assert gdsii_bytes(layout) == before
        # the layout still takes the next change
        apply_eco(layout, grid, self.WIRE, config)

    def test_non_integer_wire_rejected_before_commit(self):
        from repro.contracts import ContractViolation
        from repro.gdsii import gdsii_bytes

        layout, grid = filled_layout()
        before = gdsii_bytes(layout)
        bad = {1: [Rect(100, 100, 400, 140)], 2: [Rect(500, 500, 540.5, 900)]}
        with pytest.raises(ContractViolation, match=r"new wire on layer 2\.xh = 540\.5"):
            apply_eco(layout, grid, bad, FillConfig())
        assert gdsii_bytes(layout) == before

    def test_stale_fill_index_rejected(self):
        from repro.eco import build_fill_indexes
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        layout, grid = filled_layout()
        fill_indexes = build_fill_indexes(layout)
        layout.layer(1).clear_fills()  # index now lies about the fills
        before = gdsii_bytes(layout)
        with pytest.raises(ValueError, match="stale fill index for layer 1"):
            apply_eco(layout, grid, self.WIRE, config, fill_indexes=fill_indexes)
        assert gdsii_bytes(layout) == before  # no wire committed
        # the right row count in the wrong order: the rip-up would drop
        # fills by position, so the rows themselves are compared
        fresh = build_fill_indexes(layout)
        assert len(fresh[2]) > 1
        stale = {**fresh, 2: fresh[2][::-1]}
        with pytest.raises(ValueError, match="stale fill index for layer 2"):
            apply_eco(layout, grid, self.WIRE, config, fill_indexes=stale)
        assert gdsii_bytes(layout) == before
        # an equal copy is not stale, and neither are the views as built
        apply_eco(layout, grid, self.WIRE, config, fill_indexes={**fresh, 2: fresh[2].copy()})


class TestWiresFromJson:
    def test_parses_string_layer_keys(self):
        from repro.eco import wires_from_json

        wires = wires_from_json({"2": [[0, 0, 10, 10]], "1": [[5, 5, 9, 9]]})
        assert wires == {1: [Rect(5, 5, 9, 9)], 2: [Rect(0, 0, 10, 10)]}

    def test_rejects_non_integer_layer(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="not an integer"):
            wires_from_json({"metal1": [[0, 0, 10, 10]]})

    def test_rejects_malformed_rect(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="not \\[xl, yl, xh, yh\\]"):
            wires_from_json({"1": [[0, 0, 10]]})

    def test_rejects_non_integer_coords(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError):
            wires_from_json({"1": [[0, 0, 10.5, 10]]})
        with pytest.raises(ValueError):
            wires_from_json({"1": [[0, 0, True, 10]]})

    def test_rejects_non_list_payload(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="list of rects"):
            wires_from_json({"1": "no"})

    def test_empty_spec_is_empty(self):
        from repro.eco import wires_from_json

        assert wires_from_json({}) == {}

    @pytest.mark.parametrize("alias", ["01", "+1", " 1"])
    def test_rejects_two_keys_for_one_layer(self, alias):
        from repro.eco import wires_from_json

        keys = sorted(("1", alias))
        message = f"layer keys {keys[0]!r} and {keys[1]!r} both name layer 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            wires_from_json({"1": [[0, 0, 10, 10]], alias: [[20, 20, 30, 30]]})


class TestRefreshMetrics:
    """`analysis.refreshed_windows` counts dirtied windows once per
    refresh — however many layers re-read them (the per-layer fan-out
    is `analysis.refreshed_layers`)."""

    @staticmethod
    def _counters(record):
        totals = {}
        for span in record.spans:
            for name, value in span.get("counters", {}).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def test_multi_layer_eco_counts_windows_once(self):
        from repro import obs

        config = FillConfig()
        layout, grid = filled_layout()
        analysis = TestCachedEco._analysis(layout, grid, config)
        change = {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]}
        with obs.record_run(label="eco metrics") as rec:
            report = apply_eco(layout, grid, change, config, analysis=analysis)
        totals = self._counters(rec.record)
        affected = len(report.affected_windows)
        assert affected > 0
        # Both layers changed, so both re-read the dirtied windows —
        # but the window count must not be doubled by the fan-out.
        assert totals["analysis.refreshed_windows"] == affected
        assert totals["analysis.refreshed_layers"] == 2
