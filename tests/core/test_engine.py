"""Tests for the end-to-end engine (Fig. 3 flow)."""

import numpy as np
import pytest

from repro.core import DummyFillEngine, FillConfig, FillReport, insert_fills
from repro.density import (
    ScoreWeights,
    metal_density_map,
    compute_metrics,
    wire_density_map,
)
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def demo_layout(num_layers=3, seed=7):
    import random

    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 1200, 1200), num_layers=num_layers, rules=RULES)
    for n in layout.layer_numbers:
        for _ in range(40):
            x = rng.randrange(0, 1100)
            y = rng.randrange(0, 1150)
            w = rng.randrange(30, 120)
            h = rng.randrange(15, 40)
            layout.layer(n).add_wire(
                Rect(x, y, min(1200, x + w), min(1200, y + h))
            )
    return layout, WindowGrid(layout.die, 3, 3)


class TestEngineBasics:
    def test_report_fields(self):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid)
        assert isinstance(report, FillReport)
        assert report.num_fills > 0
        assert report.num_candidates >= report.num_fills
        assert set(report.stage_seconds) == {
            "analysis",
            "planning",
            "candidates",
            "replanning",
            "sizing",
            "insertion",
        }
        assert report.total_seconds > 0
        assert "fills=" in report.summary()

    def test_fills_committed_to_layout(self):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid)
        assert layout.num_fills == report.num_fills

    def test_improves_uniformity(self):
        layout, grid = demo_layout()
        before = sum(
            compute_metrics(wire_density_map(layer, grid)).sigma
            for layer in layout.layers
        )
        insert_fills(layout, grid)
        after = sum(
            compute_metrics(metal_density_map(layer, grid)).sigma
            for layer in layout.layers
        )
        assert after < before / 2

    def test_output_is_drc_clean(self):
        layout, grid = demo_layout()
        insert_fills(layout, grid)
        assert layout.check_drc() == []

    def test_density_near_target(self):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid)
        for layer in layout.layers:
            md = metal_density_map(layer, grid)
            target = report.final_plan.target(layer.number)
            # Within quantization of the candidate tiles.
            assert np.abs(md - target).mean() < 0.12

    def test_deterministic(self):
        l1, g1 = demo_layout()
        l2, g2 = demo_layout()
        insert_fills(l1, g1)
        insert_fills(l2, g2)
        for n in l1.layer_numbers:
            assert sorted(l1.layer(n).fills) == sorted(l2.layer(n).fills)

    def test_two_plans_recorded(self):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid)
        # Second planning round can only lower (or keep) the target.
        for n in layout.layer_numbers:
            assert report.final_plan.td(n) <= report.initial_plan.td(n) + 0.05


class TestEngineConfigs:
    @pytest.mark.parametrize("solver", ["mcf-ssp", "lp"])
    def test_all_solver_backends(self, solver):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid, FillConfig(solver=solver))
        assert report.num_fills > 0
        assert layout.check_drc() == []

    def test_weights_tune_planner(self):
        layout, grid = demo_layout()
        weights = ScoreWeights(
            beta_overlay=1e6,
            beta_variation=0.1,
            beta_line=5.0,
            beta_outlier=0.01,
            beta_size=10.0,
            beta_runtime=60.0,
            beta_memory=1024.0,
        )
        report = insert_fills(layout, grid, weights=weights)
        assert report.num_fills > 0

    def test_single_layer_layout(self):
        layout = Layout(Rect(0, 0, 600, 600), num_layers=1, rules=RULES)
        layout.layer(1).add_wire(Rect(0, 0, 200, 50))
        grid = WindowGrid(layout.die, 2, 2)
        report = insert_fills(layout, grid)
        assert report.num_fills > 0
        assert layout.check_drc() == []

    def test_empty_layout_no_fills(self):
        layout = Layout(Rect(0, 0, 600, 600), num_layers=2, rules=RULES)
        grid = WindowGrid(layout.die, 2, 2)
        report = insert_fills(layout, grid)
        assert report.num_fills == 0

    def test_rerun_on_cleared_layout_stable(self):
        layout, grid = demo_layout()
        r1 = insert_fills(layout, grid)
        fills_first = sorted(
            r for n in layout.layer_numbers for r in layout.layer(n).fills
        )
        layout.clear_fills()
        r2 = insert_fills(layout, grid)
        fills_second = sorted(
            r for n in layout.layer_numbers for r in layout.layer(n).fills
        )
        assert fills_first == fills_second

    def test_engine_reusable_across_layouts(self):
        engine = DummyFillEngine(FillConfig())
        for seed in (1, 2):
            layout, grid = demo_layout(seed=seed)
            report = engine.run(layout, grid)
            assert report.num_fills > 0

    def test_engine_logs_progress(self, caplog, monkeypatch):
        import logging

        # caplog listens on the root logger; once the events bridge is
        # installed it stops "repro" records from propagating there.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        layout, grid = demo_layout()
        with caplog.at_level(logging.INFO, logger="repro.core.engine"):
            insert_fills(layout, grid)
        messages = " ".join(r.message for r in caplog.records)
        assert "planned targets" in messages
        assert "candidate fills" in messages

    def test_window_restricted_run(self):
        layout, grid = demo_layout()
        report = insert_fills(layout, grid)
        restricted, grid2 = demo_layout()
        engine = DummyFillEngine(FillConfig())
        partial = engine.run(restricted, grid2, windows=[(0, 0), (1, 1)])
        assert 0 < partial.num_fills < report.num_fills
        filled_windows = set()
        for layer in restricted.layers:
            for f in layer.fills:
                filled_windows.update(grid2.windows_touching(f))
        assert filled_windows <= {(0, 0), (1, 1)}
