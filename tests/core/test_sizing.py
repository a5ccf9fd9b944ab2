"""Tests for fill sizing (§3.3): shrink-only LP passes, DRC legality."""

import pytest

from repro.core import FillConfig
from repro.core.sizing import SizingStats, size_window
from repro.geometry import Rect, boxes
from repro.layout import DrcRules, check_fills


def _box(rects):
    """The rects as the int64 box array ``check_fills`` takes."""
    return boxes(rects, len(rects))


RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)
WINDOW = Rect(0, 0, 400, 400)


def run_sizing(candidates, targets, wires=None, config=None, rules=RULES):
    wires_nearby = wires or {n: [] for n in candidates}
    for n in candidates:
        wires_nearby.setdefault(n, [])
    return size_window(
        WINDOW,
        candidates,
        wires_nearby,
        targets,
        rules,
        config or FillConfig(),
    )


class TestShrinkOnly:
    def test_fills_never_grow(self):
        cands = {1: [Rect(0, 0, 100, 100), Rect(150, 0, 250, 100)]}
        sized, _ = run_sizing(cands, {1: 50000.0})
        originals = {r: r for r in cands[1]}
        for r in sized[1]:
            host = [o for o in cands[1] if o.contains(r)]
            assert host, f"{r} escaped its candidate box"

    def test_no_excess_no_change(self):
        # Target far above the candidate area: nothing should shrink.
        cands = {1: [Rect(0, 0, 100, 100)]}
        sized, _ = run_sizing(cands, {1: 90000.0})
        assert sized[1] == [Rect(0, 0, 100, 100)]

    def test_excess_shrinks_toward_target(self):
        cands = {
            1: [
                Rect(0, 0, 100, 100),
                Rect(150, 0, 250, 100),
                Rect(0, 150, 100, 250),
                Rect(150, 150, 250, 250),
            ]
        }
        target = 30000.0  # candidates hold 40000
        sized, _ = run_sizing(cands, {1: target})
        total = sum(r.area for r in sized[1])
        assert total == pytest.approx(target, rel=0.1)

    def test_zero_target_culls_everything(self):
        cands = {1: [Rect(0, 0, 100, 100), Rect(150, 0, 250, 100)]}
        sized, stats = run_sizing(cands, {1: 0.0})
        assert sized[1] == []
        assert stats.dropped_fills >= 2


class TestLegality:
    def test_output_respects_drc(self):
        cands = {
            1: [Rect(0, 0, 100, 100), Rect(110, 0, 210, 100)],
            2: [Rect(50, 50, 150, 150)],
        }
        sized, _ = run_sizing(cands, {1: 15000.0, 2: 8000.0})
        for n, fills in sized.items():
            assert check_fills(_box(fills), _box([]), RULES) == []

    def test_overlapping_candidates_resolved(self):
        cands = {1: [Rect(0, 0, 100, 100), Rect(50, 50, 150, 150)]}
        sized, stats = run_sizing(cands, {1: 20000.0})
        assert check_fills(_box(sized[1]), _box([]), RULES) == []
        assert stats.dropped_fills >= 1

    def test_abutting_candidates_get_spacing(self):
        # Two candidates sharing an edge: Eqn. (13) must separate them.
        cands = {1: [Rect(0, 0, 100, 100), Rect(100, 0, 200, 100)]}
        sized, _ = run_sizing(cands, {1: 20000.0})
        assert check_fills(_box(sized[1]), _box([]), RULES) == []
        assert len(sized[1]) == 2  # resolved by shaving, not dropping

    def test_vertical_abutment_resolved_in_y(self):
        cands = {1: [Rect(0, 0, 100, 100), Rect(0, 100, 100, 200)]}
        sized, _ = run_sizing(cands, {1: 20000.0})
        assert check_fills(_box(sized[1]), _box([]), RULES) == []
        assert len(sized[1]) == 2

    def test_unrepairable_pair_dropped(self):
        # Two overlapping minimum-size fills cannot be separated.
        tight = DrcRules(
            min_spacing=50,
            min_width=40,
            min_area=1600,
            max_fill_width=45,
            max_fill_height=45,
        )
        cands = {1: [Rect(0, 0, 45, 45), Rect(46, 0, 91, 45)]}
        sized, stats = size_window(
            WINDOW, cands, {1: []}, {1: 5000.0}, tight, FillConfig()
        )
        assert check_fills(_box(sized[1]), _box([]), tight) == []
        assert stats.dropped_fills >= 1


class TestOverlayPressure:
    def test_overlay_drives_shrink_when_cheap(self):
        # A fill on layer 2 fully covered by metal above and below
        # shrinks (overlay slope 2*h0 beats density slope h0).
        cands = {2: [Rect(0, 0, 100, 100)]}
        wires = {
            1: [Rect(0, 0, 100, 100)],
            3: [Rect(0, 0, 100, 100)],
        }
        sized, _ = run_sizing(
            cands, {2: 10000.0}, wires=wires, config=FillConfig(eta=1.0)
        )
        assert sum(r.area for r in sized[2]) < 10000

    def test_eta_zero_ignores_overlay(self):
        cands = {2: [Rect(0, 0, 100, 100)]}
        wires = {1: [Rect(0, 0, 100, 100)], 3: [Rect(0, 0, 100, 100)]}
        sized, _ = run_sizing(
            cands, {2: 10000.0}, wires=wires, config=FillConfig(eta=0.0)
        )
        assert sized[2] == [Rect(0, 0, 100, 100)]

    def test_single_side_cover_is_tie_keeps_size(self):
        # Covered on one side only: overlay gain == density loss at
        # eta=1; the keep-size bias must prevent erosion.
        cands = {2: [Rect(0, 0, 100, 100)]}
        wires = {1: [Rect(0, 0, 100, 100)]}
        sized, _ = run_sizing(
            cands, {2: 10000.0}, wires=wires, config=FillConfig(eta=1.0)
        )
        assert sized[2] == [Rect(0, 0, 100, 100)]

    def test_partial_cover_shrinks_to_boundary(self):
        # Wire covers the right half above: overlay-driven shrink should
        # pull the right edge toward the wire boundary but not past the
        # point where overlay stops paying.
        cands = {2: [Rect(0, 0, 100, 100)]}
        wires = {1: [Rect(50, 0, 100, 100)], 3: [Rect(50, 0, 100, 100)]}
        sized, _ = run_sizing(
            cands, {2: 10000.0}, wires=wires, config=FillConfig(eta=1.0)
        )
        assert len(sized[2]) == 1
        fill = sized[2][0]
        assert fill.xh <= 100
        assert fill.xl == 0  # left edge has no overlay pressure


class TestSolverBackends:
    @pytest.mark.parametrize("solver", ["mcf-ssp", "lp"])
    def test_backends_agree_on_final_area(self, solver):
        cands = {
            1: [Rect(0, 0, 100, 100), Rect(150, 0, 250, 100)],
            2: [Rect(0, 150, 100, 250)],
        }
        sized, _ = run_sizing(
            cands,
            {1: 12000.0, 2: 5000.0},
            config=FillConfig(solver=solver),
        )
        total = sum(r.area for fills in sized.values() for r in fills)
        # Both backends solve the same LPs exactly.
        assert total == pytest.approx(17000.0, rel=0.15)

    def test_stats_accounting(self):
        cands = {1: [Rect(0, 0, 100, 100)]}
        _, stats = run_sizing(cands, {1: 5000.0})
        assert isinstance(stats, SizingStats)
        assert stats.windows == 1
        assert stats.lp_solves >= 1
        assert stats.variables >= 2

    def test_zero_iterations_passthrough(self):
        cands = {1: [Rect(0, 0, 100, 100)]}
        sized, _ = run_sizing(
            cands, {1: 90000.0}, config=FillConfig(sizing_iterations=0)
        )
        assert sized[1] == [Rect(0, 0, 100, 100)]
