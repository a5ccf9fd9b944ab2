"""The sizing-shape fast paths of the dual-MCF solver vs the generic route.

``_solve_single`` / ``_solve_pair`` are closed forms of the one-variable
and one-fill LPs.  Where such an LP has several optima they promise the
one the generic successive-shortest-path engine returns — the identical
integer vector, not merely another optimum.  These tests pin every
branch of the pair closed form, then compare both fast paths with
``solve_dual_mcf(..., decompose=False)``, which never enters them, on an
exhaustive small grid and on wide random instances.
``_component_split``'s pattern shortcut for the width-constraints-only
LP is checked against the union-find route the same way.

Notation of the branch cases, for ``min a*x0 + b*x1`` subject to
``x1 - x0 >= w``, ``l0 <= x0 <= u0`` and ``l1 <= x1 <= u1``:
clamp(v, lo, hi) = min(max(v, lo), hi), hi0 = min(u0, u1 - w) is the
top of x0's feasible range and lo1 = max(l1, l0 + w) the bottom of
x1's.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import DifferentialLP, LPInfeasibleError, solve_dual_mcf
from repro.netflow.dualmcf import (
    _component_split,
    _solve_pair,
    _solve_single,
    _solve_small,
)


def pair_lp(a, b, l0, u0, l1, u1, w):
    """min a*x0 + b*x1 s.t. x1 - x0 >= w, boxed — the fill-width shape."""
    lp = DifferentialLP()
    lp.add_variable(a, l0, u0)
    lp.add_variable(b, l1, u1)
    lp.add_constraint(1, 0, w)
    return lp


def generic(params):
    """The generic engine's answer: the optimum, or the infeasibility message."""
    try:
        return tuple(solve_dual_mcf(pair_lp(*params), decompose=False).x)
    except LPInfeasibleError as exc:
        return str(exc)


def closed_form(params):
    try:
        return _solve_pair(*params)
    except LPInfeasibleError as exc:
        return str(exc)


def assert_optimum(params, expected):
    """The closed form and the generic engine both return ``expected``."""
    assert _solve_pair(*params) == expected
    assert generic(params) == expected


_costs = st.one_of(st.just(0), st.integers(min_value=-5000, max_value=5000))
_coords = st.integers(min_value=-30000, max_value=30000)


@st.composite
def pair_params(draw):
    a = draw(_costs)
    b = draw(st.one_of(st.just(-a), _costs))
    l0, u0 = sorted((draw(_coords), draw(_coords)))
    l1, u1 = sorted((draw(_coords), draw(_coords)))
    w = draw(st.one_of(st.integers(min_value=-60, max_value=60), _coords))
    return a, b, l0, u0, l1, u1, w


class TestSolvePair:
    @given(pair_params())
    @settings(max_examples=500, deadline=None)
    def test_matches_generic_ssp_exactly(self, params):
        assert closed_form(params) == generic(params)

    def test_exhaustive_small_grid(self):
        # costs -2..2, bounds -2..2, w -2..3: every sign pattern, every
        # tie and every box overlap small enough to enumerate
        span = range(-2, 3)
        boxes = [(lo, hi) for lo in span for hi in span if lo <= hi]
        for a, b in itertools.product(span, repeat=2):
            for (l0, u0), (l1, u1) in itertools.product(boxes, repeat=2):
                for w in range(-2, 4):
                    params = (a, b, l0, u0, l1, u1, w)
                    assert closed_form(params) == generic(params), params

    def test_infeasible_when_boxes_cannot_satisfy_width(self):
        # u1 < l0 + w: x1 can never clear x0 by w; the message is the
        # generic engine's
        params = (1, -1, 0, 10, 0, 5, 8)
        with pytest.raises(LPInfeasibleError, match="negative-cost cycle") as info:
            _solve_pair(*params)
        assert str(info.value) == generic(params)

    def test_typical_sizing_shape(self):
        # The dominant pass shape: c_xl > 0, c_xh < 0 — the optimum
        # pins x0 at its lower and x1 at its upper bound.
        assert_optimum((7, -3, 2, 9, 5, 40, 10), (2, 40))

    def test_positive_a_positive_b_takes_lo1(self):
        # a > 0: x0 = l0; b > 0: x1 = lo1
        assert_optimum((3, 2, 5, 20, 0, 40, 10), (5, 15))
        assert_optimum((3, 2, 5, 20, 30, 40, 10), (5, 30))

    def test_negative_a_negative_b_takes_tops(self):
        # (hi0, u1)
        assert_optimum((-2, -5, 0, 30, 0, 35, 10), (25, 35))
        assert_optimum((-2, -5, 0, 20, 0, 35, 10), (20, 35))

    def test_mixed_signs_net_negative_takes_hi0(self):
        # a < 0 < b, a + b < 0: x0 = hi0, x1 = max(l1, x0 + w)
        assert_optimum((-5, 2, 0, 30, 0, 50, 10), (30, 40))
        assert_optimum((-5, 2, 0, 30, 45, 50, 10), (30, 45))

    def test_mixed_signs_net_positive_meets_l1(self):
        # a < 0 < b, a + b > 0: x0 = clamp(l1 - w, l0, hi0)
        assert_optimum((-2, 5, 0, 30, 25, 50, 10), (15, 25))
        assert_optimum((-2, 5, 20, 30, 25, 50, 10), (20, 30))
        assert_optimum((-2, 5, 0, 8, 25, 50, 10), (8, 25))

    def test_mixed_signs_tie_picks_smallest_magnitude_then_smallest_x0(self):
        # a + b = 0: x0 = clamp(min(0, -w), max(l0, l1 - w), hi0), the
        # optimum with the smallest |x0| + |x1|, then the smallest x0
        assert_optimum((-3, 3, -20, 20, -20, 20, 5), (-5, 0))
        assert_optimum((-3, 3, -20, 20, -20, 20, -5), (0, -5))
        assert_optimum((-3, 3, 10, 30, 10, 60, 5), (10, 15))
        assert_optimum((-3, 3, -50, -30, -60, -10, 5), (-30, -25))
        assert_optimum((-3, 3, -20, 20, 4, 20, 5), (-1, 4))

    def test_zero_a_prices_x1_and_frees_x0(self):
        # x1 = lo1 (b > 0) or u1 (b < 0); x0 = clamp(max(0, x1), l0, min(u0, x1 - w))
        assert_optimum((0, 4, -20, 20, -10, 30, 5), (-15, -10))
        assert_optimum((0, 4, -20, 20, 10, 30, 5), (5, 10))
        assert_optimum((0, -4, -20, 20, -10, 30, 5), (20, 30))
        assert_optimum((0, -4, -20, 20, -30, -10, 5), (-15, -10))

    def test_zero_b_prices_x0_and_frees_x1(self):
        # x0 = l0 (a > 0) or hi0 (a < 0); x1 = clamp(max(0, x0), max(l1, x0 + w), u1)
        assert_optimum((4, 0, -20, 20, -30, 30, 5), (-20, 0))
        assert_optimum((4, 0, 10, 20, -30, 30, 5), (10, 15))
        assert_optimum((-4, 0, -20, 20, -30, 30, 5), (20, 25))
        assert_optimum((-4, 0, -20, -10, -30, 30, 5), (-10, 0))

    def test_zero_costs_return_bellman_ford_potentials(self):
        # p0 = min(0, -l0, -l1, -l0 - w), p2 = min(0, p0 + u1),
        # p1 = min(0, p0 + u0, p2 - w), x = (p1 - p0, p2 - p0)
        assert_optimum((0, 0, 3, 9, -5, 20, 4), (3, 7))
        assert_optimum((0, 0, -5, 5, -5, 5, -2), (0, 0))
        assert_optimum((0, 0, -9, -3, -20, -2, 4), (-6, -2))

    def test_decomposed_pair_routes_through_fast_path(self):
        lp = pair_lp(7, -3, 2, 9, 5, 40, 10)
        assert solve_dual_mcf(lp, decompose=True).x == [2, 40]

    def test_reversed_pair_takes_generic_route(self):
        # x0 - x1 >= w is the mirror image of the shape the closed form
        # reads, so the dispatcher declines it; the extra variable makes
        # the LP decompose
        lp = DifferentialLP()
        lp.add_variable(-3, -20, 20)
        lp.add_variable(3, -20, 20)
        lp.add_constraint(0, 1, 5)
        lp.add_variable(1, 0, 9)
        assert _solve_small(lp, [0, 1], lp.constraints) is None
        assert solve_dual_mcf(lp).x == solve_dual_mcf(lp, decompose=False).x


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
