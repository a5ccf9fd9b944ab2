"""Tests for the contest scoring model (Eqns. (3) and (4), Tables 2/3)."""

import numpy as np
import pytest

from repro.density import (
    RawComponents,
    ScoreCard,
    ScoreMaps,
    ScoreWeights,
    component_score,
    measure_raw_components,
    overlay_area,
    score_layout,
    score_maps,
    worst_windows,
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


def _worst_windows_loops(maps, k):
    """``worst_windows`` as window-by-window loops and one sort per
    list: the reference the array ranking must equal."""
    by_deviation = []
    for number, density in maps.density.items():
        mean = float(density.mean())
        cols, rows = density.shape
        for i in range(cols):
            for j in range(rows):
                value = float(density[i, j])
                by_deviation.append(
                    {
                        "layer": number,
                        "window": [i, j],
                        "density": value,
                        "layer_mean": mean,
                        "deviation": abs(value - mean),
                    }
                )
    by_deviation.sort(key=lambda e: (-e["deviation"], e["layer"], e["window"]))
    by_overlay = []
    for (lo, hi), per_window in maps.overlay.items():
        total = int(per_window.sum())
        if total <= 0:
            continue
        cols, rows = per_window.shape
        for i in range(cols):
            for j in range(rows):
                area = int(per_window[i, j])
                if area <= 0:
                    continue
                by_overlay.append(
                    {"layers": [lo, hi], "window": [i, j], "overlay_area": area, "share": area / total}
                )
    by_overlay.sort(key=lambda e: (-e["overlay_area"], e["layers"], e["window"]))
    return {"by_deviation": by_deviation[:k], "by_overlay": by_overlay[:k]}


class TestWorstWindows:
    @staticmethod
    def _tied_maps(seed):
        # few distinct values, so deviations and overlay areas tie across
        # layers and windows; layers listed out of order, one pair empty
        rng = np.random.default_rng(seed)
        density = {n: rng.choice([0.1, 0.25, 0.4, 0.55], size=(5, 4)) for n in (3, 1, 2)}
        overlay = {
            (2, 3): rng.choice([0, 0, 7, 12, 12], size=(5, 4)).astype(np.int64),
            (1, 2): rng.choice([0, 12, 7], size=(5, 4)).astype(np.int64),
            (3, 4): np.zeros((5, 4), dtype=np.int64),
        }
        return ScoreMaps(density=density, overlay=overlay)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 5, 17, 200])
    def test_equals_loop_reference(self, seed, k):
        maps = self._tied_maps(seed)
        got = worst_windows(maps, k)
        assert got == _worst_windows_loops(maps, k)
        assert repr(got) == repr(_worst_windows_loops(maps, k))

    def test_filled_layout(self):
        layout = Layout(Rect(0, 0, 400, 400), num_layers=3)
        for n, (x, y) in zip(layout.layer_numbers, [(0, 0), (100, 0), (0, 100)]):
            layout.layer(n).add_wire(Rect(x, y, x + 150, y + 150))
            layout.layer(n).add_fill(Rect(x + 200, y + 200, x + 250, y + 260))
        maps = score_maps(layout, WindowGrid(layout.die, 4, 4))
        assert worst_windows(maps, 12) == _worst_windows_loops(maps, 12)
