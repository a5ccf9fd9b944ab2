"""The sizing-shape fast paths of the dual-MCF solver vs the generic route.

``_solve_single`` / ``_solve_pair`` promise the *same trajectory* as
the generic successive-shortest-path engine on their fixed topologies —
the identical integer vector, not merely another optimum.  These tests
pin that promise by exhaustive-ish randomized comparison against
``solve_dual_mcf(..., decompose=False)``, which never enters the fast
paths.  ``_component_split``'s pattern shortcut for the
width-constraints-only LP is checked against the union-find route the
same way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import DifferentialLP, LPInfeasibleError, solve_dual_mcf
from repro.netflow.dualmcf import (
    _component_split,
    _solve_pair,
    _solve_single,
)


def pair_lp(a, b, l0, u0, l1, u1, w):
    """min a*x0 + b*x1 s.t. x1 - x0 >= w, boxed — the fill-width shape."""
    lp = DifferentialLP()
    lp.add_variable(a, l0, u0)
    lp.add_variable(b, l1, u1)
    lp.add_constraint(1, 0, w)
    return lp


@st.composite
def pair_params(draw):
    a = draw(st.integers(min_value=-50, max_value=50))
    b = draw(st.integers(min_value=-50, max_value=50))
    l0 = draw(st.integers(min_value=-30, max_value=30))
    u0 = l0 + draw(st.integers(min_value=0, max_value=60))
    l1 = draw(st.integers(min_value=-30, max_value=30))
    u1 = l1 + draw(st.integers(min_value=0, max_value=60))
    w = draw(st.integers(min_value=-20, max_value=40))
    return a, b, l0, u0, l1, u1, w


class TestSolvePair:
    @given(pair_params())
    @settings(max_examples=300, deadline=None)
    def test_matches_generic_ssp_exactly(self, params):
        a, b, l0, u0, l1, u1, w = params
        lp = pair_lp(a, b, l0, u0, l1, u1, w)
        try:
            generic = solve_dual_mcf(lp, decompose=False)
        except LPInfeasibleError:
            with pytest.raises(LPInfeasibleError):
                _solve_pair(a, b, l0, u0, l1, u1, w)
            return
        assert list(_solve_pair(a, b, l0, u0, l1, u1, w)) == generic.x

    def test_infeasible_when_boxes_cannot_satisfy_width(self):
        # u1 < l0 + w: x1 can never clear x0 by w.
        with pytest.raises(LPInfeasibleError, match="negative-cost cycle"):
            _solve_pair(1, -1, 0, 10, 0, 5, 8)

    def test_typical_sizing_shape(self):
        # The dominant pass shape: c_xl > 0, c_xh < 0 — the optimum
        # pins x0 at its lower and x1 at its upper bound.
        assert _solve_pair(7, -3, 2, 9, 5, 40, 10) == (2, 40)

    def test_decomposed_pair_routes_through_fast_path(self):
        lp = pair_lp(7, -3, 2, 9, 5, 40, 10)
        assert solve_dual_mcf(lp, decompose=True).x == [2, 40]


class TestSolveSingle:
    @given(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_generic_ssp_exactly(self, c, lo, span):
        hi = lo + span
        lp = DifferentialLP()
        lp.add_variable(c, lo, hi)
        generic = solve_dual_mcf(lp, decompose=False)
        assert [_solve_single(c, lo, hi)] == generic.x

    def test_zero_cost_clamps_origin_into_box(self):
        assert _solve_single(0, 3, 9) == 3
        assert _solve_single(0, -9, -3) == -3
        assert _solve_single(0, -3, 9) == 0


def width_only_lp(widths):
    """The trivial-split pattern: per-fill width constraints only."""
    lp = DifferentialLP()
    for k, w in enumerate(widths):
        lp.add_variable(k + 1, 0, 100)   # x_lo, cost > 0
        lp.add_variable(-(k + 1), 0, 100)  # x_hi, cost < 0
        lp.add_constraint(2 * k + 1, 2 * k, w)
    return lp


def union_find_split(lp):
    """Reference split: the generic union-find route, pattern-blind."""
    parent = list(range(lp.num_variables))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in lp.constraints:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for v in range(lp.num_variables):
        groups.setdefault(find(v), []).append(v)
    buckets = {r: [] for r in groups}
    for con in lp.constraints:
        buckets[find(con[0])].append(con)
    return [(members, buckets[root]) for root, members in groups.items()]


class TestComponentSplitFastPath:
    def test_pattern_lp_split_matches_union_find(self):
        lp = width_only_lp([10, 25, 40])
        assert _component_split(lp) == union_find_split(lp)

    def test_pattern_lp_components_are_variable_pairs(self):
        lp = width_only_lp([10, 25])
        split = _component_split(lp)
        assert [m for m, _ in split] == [[0, 1], [2, 3]]
        assert [c for _, c in split] == [[(1, 0, 10)], [(3, 2, 25)]]

    def test_cross_link_defeats_pattern_and_still_splits_right(self):
        lp = width_only_lp([10, 25])
        lp.add_constraint(2, 1, 5)  # couples the two fills
        split = _component_split(lp)
        uf = union_find_split(lp)
        assert sorted(sorted(m) for m, _ in split) == sorted(
            sorted(m) for m, _ in uf
        )
        assert len(split) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solutions_identical_with_and_without_decompose(self, seed):
        rng = random.Random(seed)
        lp = width_only_lp([rng.randrange(5, 60) for _ in range(12)])
        whole = solve_dual_mcf(lp, decompose=False)
        parts = solve_dual_mcf(lp, decompose=True)
        assert parts.x == whole.x
        assert parts.objective == whole.objective
