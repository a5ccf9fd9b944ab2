"""Tests for the coupling-constrained fill baseline (refs. [11, 12])."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import coupling_lp_fill, solve_slot_lp
from repro.density import fill_overlay_area, metal_density_map, wire_density_map
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def scipy_reference(slots, need, budget):
    """Oracle: the same LP via scipy.optimize.linprog."""
    from scipy.optimize import linprog

    n = len(slots)
    c = [coupling for _, coupling in slots]
    a_ub = [[-area for area, _ in slots], [coupling for _, coupling in slots]]
    b_ub = [-need, budget]
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n, method="highs"
    )
    return result


class TestSlotLp:
    def test_zero_coupling_slots_first(self):
        slots = [(100, 50), (100, 0)]
        x = solve_slot_lp(slots, need=100, coupling_budget=1000)
        assert x == [0.0, 1.0]

    def test_fractional_marginal_slot(self):
        slots = [(100, 0), (100, 10)]
        x = solve_slot_lp(slots, need=150, coupling_budget=1000)
        assert x[0] == 1.0
        assert x[1] == pytest.approx(0.5)

    def test_budget_cuts_selection(self):
        slots = [(100, 40), (100, 40)]
        x = solve_slot_lp(slots, need=200, coupling_budget=40)
        delivered = sum(f * a for f, (a, _) in zip(x, slots))
        spent = sum(f * c for f, (a, c) in zip(x, slots))
        assert delivered == pytest.approx(100)
        assert spent <= 40 + 1e-9

    def test_zero_need(self):
        assert solve_slot_lp([(100, 0)], 0, 100) == [0.0]

    def test_empty_slots(self):
        assert solve_slot_lp([], 50, 100) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0, max_value=600),
        st.floats(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, slots, need, budget):
        x = solve_slot_lp(slots, need, budget)
        delivered = sum(f * a for f, (a, _) in zip(x, slots))
        spent = sum(f * c for f, (a, c) in zip(x, slots))
        assert spent <= budget + 1e-6
        ref = scipy_reference(slots, need, budget)
        if ref.status == 2:  # infeasible: greedy cannot over-deliver either
            # `need` may exceed capacity by less than the solver tolerance
            # (e.g. need = capacity + 1e-6), so only require that the
            # greedy never delivers more than was asked for.
            assert delivered < need + 1e-9 or need == 0
            return
        assert ref.success
        # Same delivered... the greedy may deliver exactly `need`; the
        # LP objective (total coupling) must match when both feasible.
        if delivered >= need - 1e-6:
            assert spent == pytest.approx(ref.fun, abs=1e-5)


def demo_layout(seed=17):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 800, 800), num_layers=3, rules=RULES)
    for n in layout.layer_numbers:
        for _ in range(25):
            x, y = rng.randrange(0, 700), rng.randrange(0, 760)
            layout.layer(n).add_wire(
                Rect(x, y, min(800, x + rng.randrange(40, 140)), min(800, y + 35))
            )
    return layout, WindowGrid(layout.die, 2, 2)


class TestCouplingLpFill:
    def test_fills_inserted(self):
        layout, grid = demo_layout()
        report = coupling_lp_fill(layout, grid)
        assert report.num_fills > 0
        assert report.seconds > 0

    def test_budget_controls_coupling(self):
        tight_layout, grid = demo_layout()
        loose_layout, _ = demo_layout()
        tight = coupling_lp_fill(tight_layout, grid, coupling_fraction=0.01)
        loose = coupling_lp_fill(loose_layout, grid, coupling_fraction=0.5)
        tight_ov = sum(m.sum() for m in fill_overlay_area(tight_layout, grid).values())
        loose_ov = sum(m.sum() for m in fill_overlay_area(loose_layout, grid).values())
        assert tight_ov <= loose_ov

    def test_zero_budget_zero_wire_coupling(self):
        layout, grid = demo_layout()
        coupling_lp_fill(layout, grid, coupling_fraction=0.0)
        # No fill may overlap an adjacent layer's wires.
        for lo, hi in layout.adjacent_pairs():
            for f in lo.fills:
                for w in hi.wires:
                    assert f.intersection_area(w) == 0
            for f in hi.fills:
                for w in lo.wires:
                    assert f.intersection_area(w) == 0

    def test_improves_density(self):
        layout, grid = demo_layout()
        before = wire_density_map(layout.layer(1), grid)
        coupling_lp_fill(layout, grid)
        after = metal_density_map(layout.layer(1), grid)
        assert after.mean() > before.mean()
        assert np.all(after >= before - 1e-12)

    def test_fills_avoid_own_layer_wires(self):
        layout, grid = demo_layout()
        coupling_lp_fill(layout, grid)
        for layer in layout.layers:
            for f in layer.fills:
                for w in layer.wires:
                    assert not f.overlaps(w)

    def test_deterministic(self):
        l1, g1 = demo_layout()
        l2, g2 = demo_layout()
        coupling_lp_fill(l1, g1)
        coupling_lp_fill(l2, g2)
        for n in l1.layer_numbers:
            assert l1.layer(n).fills == l2.layer(n).fills
