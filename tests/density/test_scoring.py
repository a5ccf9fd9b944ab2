"""Tests for the contest scoring model (Eqns. (3) and (4), Tables 2/3)."""

import pytest

from repro.density import (
    RawComponents,
    ScoreCard,
    ScoreWeights,
    component_score,
    measure_raw_components,
    overlay_area,
    score_layout,
)
from repro.geometry import Rect
from repro.layout import Layout, WindowGrid


WEIGHTS = ScoreWeights(
    beta_overlay=10000.0,
    beta_variation=0.1,
    beta_line=10.0,
    beta_outlier=0.01,
    beta_size=32.0,
    beta_runtime=60.0,
    beta_memory=1024.0,
)


class TestComponentScore:
    def test_eqn4_zero_raw_is_one(self):
        assert component_score(0.0, 5.0) == 1.0

    def test_eqn4_linear(self):
        assert component_score(2.5, 5.0) == pytest.approx(0.5)

    def test_eqn4_clamps_at_zero(self):
        assert component_score(7.0, 5.0) == 0.0

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            component_score(1.0, 0.0)


class TestWeights:
    def test_contest_alphas_sum_to_one(self):
        w = WEIGHTS
        total = (
            w.alpha_overlay
            + w.alpha_variation
            + w.alpha_line
            + w.alpha_outlier
            + w.alpha_size
            + w.alpha_runtime
            + w.alpha_memory
        )
        assert total == pytest.approx(1.0)

    def test_quality_weight(self):
        assert WEIGHTS.quality_weight == pytest.approx(0.8)


class TestScoreCard:
    def make_card(self, **overrides):
        fields = dict(
            overlay=0.5,
            variation=0.6,
            line=0.7,
            outlier=0.8,
            size=0.9,
            runtime=0.4,
            memory=0.3,
        )
        fields.update(overrides)
        return ScoreCard(
            weights=WEIGHTS,
            raw=RawComponents(0, 0, 0, 0),
            **fields,
        )

    def test_quality_weighted_sum(self):
        card = self.make_card()
        expected = 0.2 * 0.5 + 0.2 * 0.6 + 0.2 * 0.7 + 0.15 * 0.8 + 0.05 * 0.9
        assert card.quality == pytest.approx(expected)

    def test_total_adds_runtime_memory(self):
        card = self.make_card()
        assert card.total == pytest.approx(
            card.quality + 0.15 * 0.4 + 0.05 * 0.3
        )

    def test_table3_consistency_check(self):
        # Reproduce the paper's own 'ours'/s row arithmetic from Table 3:
        # component scores -> quality 0.724, total 0.895.
        paper = ScoreCard(
            weights=WEIGHTS,
            raw=RawComponents(0, 0, 0, 0),
            overlay=0.723,
            variation=0.948,
            line=0.979,
            outlier=0.994,
            size=0.887,
            runtime=0.872,
            memory=0.818,
        )
        assert paper.quality == pytest.approx(0.724, abs=0.001)
        assert paper.total == pytest.approx(0.895, abs=0.001)

    def test_as_row_columns(self):
        row = self.make_card().as_row()
        assert list(row) == [
            "overlay",
            "variation",
            "line",
            "outlier",
            "size",
            "runtime",
            "memory",
            "quality",
            "score",
        ]


class TestMeasureAndScore:
    def make_layout(self):
        layout = Layout(Rect(0, 0, 400, 400), num_layers=2)
        grid = WindowGrid(layout.die, 2, 2)
        return layout, grid

    def test_uniform_filled_layout_high_scores(self):
        layout, grid = self.make_layout()
        # Perfectly uniform fill, no overlay.
        for i in range(2):
            for j in range(2):
                layout.layer(1).add_fill(
                    Rect(i * 200 + 10, j * 200 + 10, i * 200 + 110, j * 200 + 110)
                )
        card = score_layout(layout, grid, WEIGHTS)
        assert card.variation == 1.0
        assert card.line == 1.0
        assert card.outlier == 1.0
        assert card.overlay == 1.0

    def test_overlay_reduces_score(self):
        layout, grid = self.make_layout()
        layout.layer(1).add_fill(Rect(0, 0, 100, 100))
        layout.layer(2).add_wire(Rect(0, 0, 50, 100))
        card = score_layout(layout, grid, WEIGHTS)
        assert card.raw.overlay == 5000
        assert card.overlay == pytest.approx(0.5)

    def test_overlay_outside_the_die_not_counted(self):
        # Only the in-die half of the fill-over-wire overlap is scored,
        # as the density components count only in-die area; the
        # die-wide sweep sees all of it.
        layout, grid = self.make_layout()
        layout.layer(1).add_fill(Rect(350, 0, 450, 100))
        layout.layer(2).add_wire(Rect(300, 0, 500, 100))
        assert overlay_area(layout.layer(1), layout.layer(2)) == 10000
        assert measure_raw_components(layout, grid).overlay == 5000
        card = score_layout(layout, grid, WEIGHTS)
        assert card.raw.overlay == 5000
        assert card.maps.overlay[(1, 2)].tolist() == [[0, 0], [5000, 0]]

    def test_outlier_uses_product_form(self):
        layout, grid = self.make_layout()
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        raw = measure_raw_components(layout, grid)
        # Eqn. (3): s_oh argument is sigma_total * oh_total.
        assert raw.outlier >= 0.0

    def test_runtime_memory_scores(self):
        layout, grid = self.make_layout()
        card = score_layout(
            layout, grid, WEIGHTS, file_size=16.0, runtime=30.0, memory=512.0
        )
        assert card.size == pytest.approx(0.5)
        assert card.runtime == pytest.approx(0.5)
        assert card.memory == pytest.approx(0.5)

    def test_variation_sums_layers(self):
        layout, grid = self.make_layout()
        # Same non-uniform pattern on both layers: raw sigma doubles.
        layout.layer(1).add_wire(Rect(0, 0, 100, 100))
        layout.layer(2).add_wire(Rect(0, 0, 100, 100))
        raw2 = measure_raw_components(layout, grid)
        layout2 = Layout(Rect(0, 0, 400, 400), num_layers=2)
        layout2.layer(1).add_wire(Rect(0, 0, 100, 100))
        raw1 = measure_raw_components(layout2, grid)
        assert raw2.variation == pytest.approx(2 * raw1.variation)
