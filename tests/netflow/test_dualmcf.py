"""Tests for the dual-MCF transformation (Eqns. (14)-(16), Fig. 6).

The exact worked example of the paper's Fig. 6 is reproduced, and the
transformation is cross-validated against scipy's LP solver on random
differential-constraint programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import (
    DifferentialLP,
    LPInfeasibleError,
    solve_dual_mcf,
    solve_linprog,
    solve_min_cost_flow,
)


def fig6_lp() -> DifferentialLP:
    """The paper's Fig. 6 instance: min x1+2x2+3x3+4x4,
    x1-x2>=5, x4-x3>=6, 0<=x<=10."""
    lp = DifferentialLP()
    for c in (1, 2, 3, 4):
        lp.add_variable(c, 0, 10)
    lp.add_constraint(0, 1, 5)
    lp.add_constraint(3, 2, 6)
    return lp


class TestFig6:
    """Exact reproduction of the paper's worked example."""

    def test_solution_matches_paper(self):
        sol = solve_dual_mcf(fig6_lp())
        assert sol.x == [5, 0, 0, 6]  # the paper's stated solution
        assert sol.objective == 29

    def test_scipy_agrees(self):
        assert solve_linprog(fig6_lp()).x == [5, 0, 0, 6]

    def test_network_structure_fig6a(self):
        net = fig6_lp().to_flow_network()
        # Fig. 6(a): node y0 supply -10, y1..y4 supplies 1..4.
        assert net.supplies == [-10, 1, 2, 3, 4]
        arcs = {(a.tail, a.head): a.cost for a in net.arcs}
        assert arcs[(1, 2)] == -5  # constraint x1-x2>=5 -> cost -5
        assert arcs[(4, 3)] == -6
        assert arcs[(1, 0)] == 0  # lower bound 0
        assert arcs[(0, 1)] == 10  # upper bound 10

    def test_flow_cost_is_negated_objective(self):
        net = fig6_lp().to_flow_network()
        result = solve_min_cost_flow(net)
        assert result.cost == -29


class TestDifferentialLP:
    def test_crossed_bounds_rejected(self):
        lp = DifferentialLP()
        with pytest.raises(LPInfeasibleError):
            lp.add_variable(1, 5, 2)

    def test_self_constraint_positive_rejected(self):
        lp = DifferentialLP()
        lp.add_variable(1, 0, 10)
        with pytest.raises(LPInfeasibleError):
            lp.add_constraint(0, 0, 1)

    def test_self_constraint_nonpositive_dropped(self):
        lp = DifferentialLP()
        lp.add_variable(1, 0, 10)
        lp.add_constraint(0, 0, -1)
        assert lp.num_constraints == 0

    def test_unknown_variable_rejected(self):
        lp = DifferentialLP()
        lp.add_variable(1, 0, 10)
        with pytest.raises(ValueError):
            lp.add_constraint(0, 3, 1)

    def test_objective_evaluation(self):
        lp = fig6_lp()
        assert lp.objective([5, 0, 0, 6]) == 29

    def test_is_feasible(self):
        lp = fig6_lp()
        assert lp.is_feasible([5, 0, 0, 6])
        assert not lp.is_feasible([4, 0, 0, 6])  # violates x1-x2>=5
        assert not lp.is_feasible([11, 6, 0, 6])  # violates bound

    def test_empty_lp(self):
        sol = solve_dual_mcf(DifferentialLP())
        assert sol.x == []
        assert sol.objective == 0


class TestInfeasibility:
    def test_contradictory_chain(self):
        lp = DifferentialLP()
        lp.add_variable(0, 0, 100)
        lp.add_variable(0, 0, 100)
        lp.add_constraint(0, 1, 5)  # x0 >= x1 + 5
        lp.add_constraint(1, 0, 5)  # x1 >= x0 + 5
        with pytest.raises(LPInfeasibleError):
            solve_dual_mcf(lp)

    def test_constraint_exceeds_bounds(self):
        lp = DifferentialLP()
        lp.add_variable(0, 0, 10)
        lp.add_variable(0, 0, 10)
        lp.add_constraint(0, 1, 25)  # impossible within [0,10] boxes
        with pytest.raises(LPInfeasibleError):
            solve_dual_mcf(lp)

    def test_scipy_agrees_on_infeasible(self):
        lp = DifferentialLP()
        lp.add_variable(0, 0, 10)
        lp.add_variable(0, 0, 10)
        lp.add_constraint(0, 1, 25)
        with pytest.raises(LPInfeasibleError):
            solve_linprog(lp)


@st.composite
def random_diff_lps(draw):
    lp = DifferentialLP()
    n = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n):
        lo = draw(st.integers(min_value=-25, max_value=15))
        hi = lo + draw(st.integers(min_value=0, max_value=40))
        lp.add_variable(draw(st.integers(min_value=-9, max_value=9)), lo, hi)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            lp.add_constraint(i, j, draw(st.integers(min_value=-20, max_value=20)))
    return lp


class TestRandomCrossValidation:
    @given(random_diff_lps())
    @settings(max_examples=80, deadline=None)
    def test_dual_mcf_matches_scipy(self, lp):
        try:
            mcf = solve_dual_mcf(lp)
        except LPInfeasibleError:
            with pytest.raises(LPInfeasibleError):
                solve_linprog(lp)
            return
        scipy_sol = solve_linprog(lp)
        assert mcf.objective == scipy_sol.objective
        assert lp.is_feasible(mcf.x)

    @given(random_diff_lps())
    @settings(max_examples=40, deadline=None)
    def test_decomposed_matches_monolithic(self, lp):
        try:
            whole = solve_dual_mcf(lp, decompose=False)
        except LPInfeasibleError:
            with pytest.raises(LPInfeasibleError):
                solve_dual_mcf(lp, decompose=True)
            return
        parts = solve_dual_mcf(lp, decompose=True)
        assert parts.objective == whole.objective
        assert lp.is_feasible(parts.x)

    @given(random_diff_lps())
    @settings(max_examples=40, deadline=None)
    def test_solutions_are_integral_vertices(self, lp):
        # Eqn. (14) requires x in Z; dual-MCF guarantees it exactly.
        try:
            sol = solve_dual_mcf(lp)
        except LPInfeasibleError:
            return
        assert all(isinstance(v, int) for v in sol.x)

    def test_unknown_solver_rejected(self):
        # solve_dual_mcf has no solver argument: SSP is its only engine.
        with pytest.raises(TypeError):
            solve_dual_mcf(fig6_lp(), "simplex")
