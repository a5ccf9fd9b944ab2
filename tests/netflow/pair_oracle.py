"""Scalar oracle of the dual-MCF solver's closed forms.

``_solve_pair`` and ``_solve_single`` are the one-fill and
one-variable component optima as the successive-shortest-path engine
returns them, one component at a time, and ``solve_components`` is the
decomposed solve built on them: components in order, each pair or
single variable by its scalar closed form, everything else through
``solve_dual_mcf(..., decompose=False)``.  The library solves every
pair component with the vectorized closed form
(``repro.netflow.dualmcf._solve_pairs``); these scalar forms are what
the tests hold it to.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.netflow import (
    DifferentialLP,
    DualMcfSolution,
    LPInfeasibleError,
    PairLP,
    solve_dual_mcf,
)
from repro.netflow.dualmcf import _component_split, _sub_lp

_INFEASIBLE_CYCLE_MSG = (
    "differential constraint system is infeasible: negative-cost cycle: "
    "the min-cost flow is unbounded "
    "(the corresponding differential LP is infeasible)"
)


def _clamp(v: int, lo: int, hi: int) -> int:
    return min(max(v, lo), hi)


def _solve_pair(
    a: int, b: int, l0: int, u0: int, l1: int, u1: int, w: int
) -> Tuple[int, int]:
    """min a*x0 + b*x1 s.t. x1 - x0 >= w, boxes — the optimum SSP returns.

    Where the optimum is unique this is plain LP reasoning.  Where it is
    not, the rules pick SSP's choice:

    * a zero-cost variable takes the value nearest ``max(0, other)``
      its feasible range allows;
    * on the tie ``a + b = 0`` with ``a < 0``, every ``x0`` from
      ``max(l0, l1 - w)`` to ``hi0`` is optimal, and SSP takes the one
      with the smallest ``|x0| + |x1|``, then the smallest ``x0``;
    * with no costs at all SSP never augments and returns its
      Bellman-Ford start potentials.
    """
    if u1 < l0 + w:
        # The only possible negative cycle of the pair network:
        # y0 -> y2 -> y1 -> y0 with cost u1 - w - l0.
        raise LPInfeasibleError(_INFEASIBLE_CYCLE_MSG)
    if a == 0 and b == 0:
        p0 = min(0, -l0, -l1, -l0 - w)
        p2 = min(0, p0 + u1)
        p1 = min(0, p0 + u0, p2 - w)
        return p1 - p0, p2 - p0
    if a == 0:
        x1 = u1 if b < 0 else max(l1, l0 + w)
        return _clamp(max(0, x1), l0, min(u0, x1 - w)), x1
    hi0 = min(u0, u1 - w)  # top of x0's feasible range
    if a > 0:
        x0 = l0
    elif b <= 0 or a + b < 0:
        x0 = hi0
    elif a + b > 0:
        x0 = _clamp(l1 - w, l0, hi0)
    else:
        x0 = _clamp(min(0, -w), max(l0, l1 - w), hi0)
    if b < 0:
        return x0, u1
    if b > 0:
        return x0, max(l1, x0 + w)
    return x0, _clamp(max(0, x0), max(l1, x0 + w), u1)


def _solve_single(c: int, lower: int, upper: int) -> int:
    """One unconstrained boxed variable, as the SSP potentials pick it.

    The two-node network routes the whole supply over the lower-bound
    arc (``c > 0``), the upper-bound arc (``c < 0``), or not at all —
    with zero cost the Bellman-Ford potentials alone fix x at 0 clamped
    into the box.
    """
    if c > 0:
        return lower
    if c < 0:
        return upper
    return _clamp(0, lower, upper)


def _solve_small(
    lp: DifferentialLP,
    members: List[int],
    cons: List[Tuple[int, int, int]],
) -> Optional[Tuple[int, ...]]:
    """Dispatch a component to a fast path, or None for the generic route."""
    if len(members) == 1 and not cons:
        v = members[0]
        return (_solve_single(lp.costs[v], lp.lowers[v], lp.uppers[v]),)
    if len(members) == 2 and len(cons) == 1:
        lo_v, hi_v = members
        i, j, b = cons[0]
        # The closed form reads the constraint as x_hi - x_lo >= w; a
        # reversed pair takes the generic route.
        if i == hi_v and j == lo_v:
            return _solve_pair(
                lp.costs[lo_v],
                lp.costs[hi_v],
                lp.lowers[lo_v],
                lp.uppers[lo_v],
                lp.lowers[hi_v],
                lp.uppers[hi_v],
                b,
            )
    return None


def solve_components(lp: DifferentialLP) -> DualMcfSolution:
    """``solve_dual_mcf(lp)`` with every small component in scalar closed form."""
    if lp.num_variables == 0:
        return DualMcfSolution(x=[], objective=0, flow_cost=0)
    split = _component_split(lp)
    if len(split) == 1:
        return solve_dual_mcf(lp, decompose=False)
    x: List[int] = [0] * lp.num_variables
    total_obj = 0
    for members, cons in split:
        fx = _solve_small(lp, members, cons)
        if fx is None:
            sub = _sub_lp(lp, members, cons)[0]
            fx = tuple(solve_dual_mcf(sub, decompose=False).x)
        for v, value in zip(members, fx):
            x[v] = value
            total_obj += lp.costs[v] * value
    return DualMcfSolution(x=x, objective=total_obj, flow_cost=-total_obj)


def as_differential(lp: PairLP) -> DifferentialLP:
    """The :class:`DifferentialLP` a :class:`PairLP` stands for."""
    return DifferentialLP(
        costs=np.column_stack((lp.a, lp.b)).ravel().tolist(),
        lowers=np.column_stack((lp.l0, lp.l1)).ravel().tolist(),
        uppers=np.column_stack((lp.u0, lp.u1)).ravel().tolist(),
        constraints=[(2 * k + 1, 2 * k, w) for k, w in enumerate(lp.w.tolist())],
    )
