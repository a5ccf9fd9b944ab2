"""Tests for candidate fill generation (§3.2, Alg. 1, Figs. 4/5)."""

import numpy as np
import pytest

from repro.core import FillConfig, grid_candidates, quality_score
from repro.core.candidates import candidate_area_maps, generate_candidates
from repro.core.planner import plan_targets
from repro.density import analyze_layout
from repro.geometry import Rect, boxes, intersection_area, union_area
from repro.layout import DrcRules, Layout, WindowGrid

from .plans import rect_plan

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


class TestGridCandidates:
    def test_empty_region(self):
        assert grid_candidates(boxes([], 0), RULES) == []

    def test_free_tile_yields_max_cell(self):
        region = [Rect(0, 0, 100, 100)]
        cands = grid_candidates(boxes(region, len(region)), RULES, anchor=Rect(0, 0, 100, 100))
        assert cands == [Rect(0, 0, 100, 100)]

    def test_large_region_tiled_at_pitch(self):
        region = [Rect(0, 0, 320, 100)]
        cands = grid_candidates(boxes(region, len(region)), RULES, anchor=Rect(0, 0, 320, 100))
        # Tiles at x = 0, 110, 220: widths 100, 100, 100.
        assert len(cands) == 3
        xs = sorted(c.xl for c in cands)
        assert xs == [0, 110, 220]

    def test_candidates_inside_region(self):
        region = [Rect(0, 0, 250, 250), Rect(300, 0, 340, 340)]
        for c in grid_candidates(boxes(region, len(region)), RULES):
            assert intersection_area([c], region) == c.area

    def test_candidates_respect_spacing(self):
        region = [Rect(0, 0, 500, 500)]
        cands = grid_candidates(boxes(region, len(region)), RULES)
        for i, a in enumerate(cands):
            for b in cands[i + 1 :]:
                assert a.euclidean_gap(b) >= RULES.min_spacing

    def test_spacing_holds_on_fragmented_region(self):
        # Abutting fragments (typical slab-decomposition output) must
        # not produce candidate pairs closer than the spacing rule.
        region = [Rect(0, 0, 500, 250), Rect(0, 250, 500, 500)]
        cands = grid_candidates(boxes(region, len(region)), RULES)
        for i, a in enumerate(cands):
            for b in cands[i + 1 :]:
                assert a.euclidean_gap(b) >= RULES.min_spacing

    def test_illegal_slivers_excluded(self):
        region = [Rect(0, 0, 8, 400)]  # narrower than min width
        assert grid_candidates(boxes(region, len(region)), RULES) == []

    def test_stagger_shifts_grid(self):
        region = [Rect(0, 0, 400, 400)]
        anchor = Rect(0, 0, 400, 400)
        plain = grid_candidates(boxes(region, len(region)), RULES, anchor=anchor)
        staggered = grid_candidates(boxes(region, len(region)), RULES, stagger=True, anchor=anchor)
        assert {c.xl for c in plain} != {c.xl for c in staggered}

    def test_one_candidate_per_tile(self):
        # A tile with two free fragments yields only the larger one.
        region = [Rect(0, 0, 100, 30), Rect(0, 60, 100, 100)]
        cands = grid_candidates(boxes(region, len(region)), RULES, anchor=Rect(0, 0, 100, 100))
        assert len(cands) == 1
        assert cands[0] == Rect(0, 60, 100, 100)


class TestQualityScore:
    def test_eqn8_no_overlay(self):
        fill = Rect(0, 0, 100, 100)
        q = quality_score(fill, [], window_area=40000, gamma=1.0)
        assert q == pytest.approx(10000 / 40000)

    def test_eqn8_with_overlay(self):
        fill = Rect(0, 0, 100, 100)
        neighbors = [Rect(0, 0, 50, 100)]  # half covered
        q = quality_score(fill, neighbors, window_area=40000, gamma=1.0)
        assert q == pytest.approx(-0.5 + 0.25)

    def test_gamma_weighting(self):
        fill = Rect(0, 0, 100, 100)
        q0 = quality_score(fill, [], 40000, gamma=0.0)
        q2 = quality_score(fill, [], 40000, gamma=2.0)
        assert q0 == 0.0
        assert q2 == pytest.approx(0.5)

    def test_degenerate_fill_rejected(self):
        with pytest.raises(ValueError):
            quality_score(Rect(0, 0, 0, 10), [], 100, 1.0)

    def test_full_cover_worst(self):
        fill = Rect(0, 0, 100, 100)
        covered = quality_score(fill, [Rect(0, 0, 100, 100)], 40000, 1.0)
        free = quality_score(fill, [], 40000, 1.0)
        assert covered < free


def fillable_layout(num_layers=2):
    """A layout with an empty region and a wire-dense region."""
    layout = Layout(Rect(0, 0, 800, 400), num_layers=num_layers, rules=RULES)
    for n in layout.layer_numbers:
        layout.layer(n).add_wire(Rect(20, 20, 380, 60))
    grid = WindowGrid(layout.die, 2, 1)
    return layout, grid


def run_generation(layout, grid, config=None):
    config = config or FillConfig()
    margin = config.effective_margin(layout.rules.min_spacing)
    analysis = analyze_layout(layout, grid, window_margin=margin)
    plan = plan_targets(analysis)
    return (
        generate_candidates(layout, grid, plan, analysis, config),
        plan,
        analysis,
    )


class TestAlg1:
    def test_candidates_reach_lambda_target(self):
        layout, grid = fillable_layout()
        config = FillConfig(lambda_factor=1.2)
        cands, plan, analysis = run_generation(layout, grid, config)
        for (i, j), per_layer in rect_plan(cands).items():
            aw = grid.window_area(i, j)
            for n, rects in per_layer.items():
                dt = plan.target(n)[i, j]
                dw = analysis[n].lower[i, j]
                achieved = dw + sum(r.area for r in rects) / aw
                # Reaches λ·dt or exhausts the candidate supply.
                assert achieved >= min(
                    config.lambda_factor * dt, dw + 0.55
                ) - 0.1

    def test_candidates_avoid_wires(self):
        layout, grid = fillable_layout()
        cands, _, _ = run_generation(layout, grid)
        wire = Rect(20, 20, 380, 60)
        for per_layer in rect_plan(cands).values():
            for n, rects in per_layer.items():
                for r in rects:
                    assert r.euclidean_gap(wire) >= RULES.min_spacing

    def test_all_layers_covered(self):
        layout, grid = fillable_layout(num_layers=3)
        cands, _, _ = run_generation(layout, grid)
        layers_seen = {
            n for per_layer in cands.values() for n, v in per_layer.items() if len(v)
        }
        assert layers_seen == {1, 2, 3}

    def test_even_layer_prefers_low_overlay(self):
        # Layer 1 (odd) picks first; layer 2's q-score must steer its
        # candidates away from layer 1's picks where possible.
        layout, grid = fillable_layout(num_layers=2)
        cands, _, _ = run_generation(layout, grid)
        total_overlap = 0
        total_area = 0
        for per_layer in rect_plan(cands).values():
            l1 = per_layer.get(1, [])
            for c in per_layer.get(2, []):
                total_overlap += intersection_area([c], l1)
                total_area += c.area
        if total_area:
            assert total_overlap / total_area < 0.6

    def test_zero_target_no_candidates(self):
        layout = Layout(Rect(0, 0, 400, 400), num_layers=1, rules=RULES)
        grid = WindowGrid(layout.die, 1, 1)
        cands, _, _ = run_generation(layout, grid)
        # No wires anywhere: target density is 0, nothing to add.
        assert all(
            not len(rects)
            for per_layer in cands.values()
            for rects in per_layer.values()
        )

    def test_candidate_area_maps(self):
        layout, grid = fillable_layout()
        cands, _, _ = run_generation(layout, grid)
        maps = candidate_area_maps(cands, grid, layout.layer_numbers)
        for n in layout.layer_numbers:
            assert maps[n].shape == (grid.cols, grid.rows)
            direct = sum(
                sum(r.area for r in rect_plan(cands)[key].get(n, []))
                for key in cands
            )
            assert maps[n].sum() == pytest.approx(direct)

    def test_deterministic(self):
        layout1, grid1 = fillable_layout()
        layout2, grid2 = fillable_layout()
        c1, _, _ = run_generation(layout1, grid1)
        c2, _, _ = run_generation(layout2, grid2)
        assert rect_plan(c1) == rect_plan(c2)


class TestLargestClipPiece:
    """The oracle's `_largest_clip_piece` vs the canonical sweep.

    The scalar oracle of Alg. 1 (``candidates_oracle``) takes a tile's
    piece with this routine instead of
    ``max(rect_set_intersect(touching, [tile]))``; the canonical
    decomposition is a geometric invariant, so both must pick the
    *same* rectangle — same key ``(area, xl, yl)``, same coordinates —
    for any clip set.
    """

    @staticmethod
    def _oracle(clips, tile):
        from repro.geometry import rect_set_intersect

        pieces = rect_set_intersect(clips, [tile])
        return max(pieces, key=lambda r: (r.area, r.xl, r.yl))

    @pytest.mark.parametrize("seed", [5, 19, 73, 311])
    def test_matches_sweep_on_random_clip_sets(self, seed):
        import random

        from .candidates_oracle import _largest_clip_piece

        rng = random.Random(seed)
        tile = Rect(0, 0, 120, 120)
        for _ in range(300):
            clips = []
            for _ in range(rng.randrange(2, 7)):
                x = rng.randrange(0, 110)
                y = rng.randrange(0, 110)
                r = Rect(
                    x, y,
                    min(120, x + rng.randrange(5, 80)),
                    min(120, y + rng.randrange(5, 80)),
                )
                clips.append(r.intersection(tile))
            assert _largest_clip_piece(clips) == self._oracle(clips, tile), clips

    def test_tie_breaks_on_position(self):
        from .candidates_oracle import _largest_clip_piece

        # Two disjoint equal-area pieces: the (area, xl, yl) key must
        # pick the same one the sweep's max() picks.
        clips = [Rect(0, 0, 30, 30), Rect(60, 60, 90, 90)]
        tile = Rect(0, 0, 120, 120)
        assert _largest_clip_piece(clips) == self._oracle(clips, tile)

    def test_abutting_spans_merge_into_one_piece(self):
        from .candidates_oracle import _largest_clip_piece

        # Two clips sharing an edge form one canonical rect — the
        # interval normalisation must merge abutting spans, not just
        # overlapping ones.
        clips = [Rect(0, 0, 50, 40), Rect(50, 0, 100, 40)]
        assert _largest_clip_piece(clips) == Rect(0, 0, 100, 40)
