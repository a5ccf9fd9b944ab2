"""Dual min-cost-flow solver for differential-constraint LPs.

Implements the core speed-up of the paper (§3.3.3): a linear program of
the form of Eqn. (14),

    min  Σ c_i x_i
    s.t. x_i − x_j ≥ b_ij      (i, j) ∈ E
         l_i ≤ x_i ≤ u_i       x ∈ Z,

is transformed into the dual of a min-cost-flow problem (Eqn. (15)) by
introducing an anchor variable ``y_0`` and folding the box bounds into
differential constraints against it (Eqn. (16)):

    x_i = y_i − y_0,
    c'_i = c_i  (i ≥ 1),   c'_0 = −Σ c_i,
    b'_ij = b_ij,  b'_i0 = l_i,  b'_0i = −u_i.

The flow network has one node per ``y`` variable with supply ``c'_i``
and one uncapacitated arc per constraint ``(i, j)`` with cost
``−b'_ij``; the optimal node potentials are the optimal ``y`` (Lemma 1),
recovered here from the solver's dual values.

An infeasible constraint system (e.g. a positive-weight cycle of
differential constraints, or crossed bounds) shows up as a negative
uncapacitated cycle in the flow network and is reported as
:class:`LPInfeasibleError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from .graph import FlowNetwork, InfeasibleFlowError, UnboundedFlowError
from .ssp import solve_min_cost_flow

__all__ = [
    "DifferentialLP",
    "DualMcfSolution",
    "LPInfeasibleError",
    "solve_dual_mcf",
]


class LPInfeasibleError(Exception):
    """The differential-constraint system admits no solution."""


@dataclass
class DifferentialLP:
    """A differential-constraint LP instance (Eqn. (14)).

    Variables are added with :meth:`add_variable` (returning the
    variable index) and constraints ``x_i - x_j >= b`` with
    :meth:`add_constraint`.  Costs, bounds and constraint offsets are
    integers; optima are therefore integral (the constraint matrix is
    totally unimodular), which is exactly why the paper can treat the
    relaxation as an ILP.
    """

    costs: List[int] = field(default_factory=list)
    lowers: List[int] = field(default_factory=list)
    uppers: List[int] = field(default_factory=list)
    constraints: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return len(self.costs)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_variable(self, cost: int, lower: int, upper: int) -> int:
        """New variable with objective coefficient and box bounds."""
        if lower > upper:
            raise LPInfeasibleError(
                f"variable bounds crossed: [{lower}, {upper}]"
            )
        self.costs.append(int(cost))
        self.lowers.append(int(lower))
        self.uppers.append(int(upper))
        return len(self.costs) - 1

    def add_constraint(self, i: int, j: int, b: int) -> None:
        """Add ``x_i - x_j >= b``."""
        n = self.num_variables
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"constraint ({i},{j}) references unknown variables")
        if i == j:
            if b > 0:
                raise LPInfeasibleError(f"constraint x_{i} - x_{i} >= {b} > 0")
            return  # trivially satisfied
        self.constraints.append((i, j, int(b)))

    def objective(self, x: Sequence[int]) -> int:
        return sum(c * v for c, v in zip(self.costs, x))

    def is_feasible(self, x: Sequence[float], tol: float = 1e-9) -> bool:
        """Check a candidate point against bounds and constraints."""
        for v, lo, hi in zip(x, self.lowers, self.uppers):
            if v < lo - tol or v > hi + tol:
                return False
        for i, j, b in self.constraints:
            if x[i] - x[j] < b - tol:
                return False
        return True

    # ------------------------------------------------------------------
    def to_flow_network(self) -> FlowNetwork:
        """Build the Eqn. (16) min-cost-flow network (node 0 = y_0)."""
        net = FlowNetwork()
        total_cost = sum(self.costs)
        net.add_node(supply=-total_cost, name="y0")
        for i, c in enumerate(self.costs):
            net.add_node(supply=c, name=f"y{i + 1}")
        for i, j, b in self.constraints:
            # (i, j) in E' with b'_ij = b_ij  ->  arc i -> j, cost -b.
            net.add_arc(i + 1, j + 1, capacity=None, cost=-b)
        for i in range(self.num_variables):
            # y_i - y_0 >= l_i  ->  arc i -> 0, cost -l_i.
            net.add_arc(i + 1, 0, capacity=None, cost=-self.lowers[i])
            # y_0 - y_i >= -u_i  ->  arc 0 -> i, cost u_i.
            net.add_arc(0, i + 1, capacity=None, cost=self.uppers[i])
        return net


@dataclass(frozen=True)
class DualMcfSolution:
    """Optimal solution of a :class:`DifferentialLP` via dual MCF."""

    x: List[int]
    objective: int
    flow_cost: int

    def __iter__(self):
        return iter(self.x)


def solve_dual_mcf(lp: DifferentialLP, *, decompose: bool = True) -> DualMcfSolution:
    """Solve Eqn. (14) exactly through the Eqn. (15)/(16) dual MCF.

    The flow engine is successive shortest paths
    (:func:`~repro.netflow.ssp.solve_min_cost_flow`).

    With ``decompose=True`` (default) the LP is first split into the
    connected components of its constraint graph, each solved on its
    own anchor node.  Fill-sizing LPs decompose into thousands of
    two-variable components plus a few spacing-coupled chains, so this
    is a large constant-factor win at identical optima; pass
    ``decompose=False`` to benchmark the monolithic transformation.
    """
    if lp.num_variables == 0:
        return DualMcfSolution(x=[], objective=0, flow_cost=0)
    if decompose:
        split = _component_split(lp)
        obs.metrics.counter("netflow.dual_mcf.solves").inc()
        obs.metrics.histogram("netflow.dual_mcf.components").observe(len(split))
        if len(split) > 1:
            x: List[int] = [0] * lp.num_variables
            total_obj = 0
            total_cost = 0
            for members, cons in split:
                fx = _solve_small(lp, members, cons)
                if fx is not None:
                    for v, value in zip(members, fx):
                        x[v] = value
                        part = lp.costs[v] * value
                        total_obj += part
                        total_cost -= part
                    continue
                sub, back = _sub_lp(lp, members, cons)
                sol = solve_dual_mcf(sub, decompose=False)
                for local, value in enumerate(sol.x):
                    x[back[local]] = value
                total_obj += sol.objective
                total_cost += sol.flow_cost
            return DualMcfSolution(x=x, objective=total_obj, flow_cost=total_cost)
    net = lp.to_flow_network()
    try:
        result = solve_min_cost_flow(net)
    except (InfeasibleFlowError, UnboundedFlowError) as exc:
        raise LPInfeasibleError(
            f"differential constraint system is infeasible: {exc}"
        ) from exc
    # With the solver convention cost + pi[tail] - pi[head] >= 0 on every
    # residual arc, the potentials themselves are a feasible y for (15)
    # (Lemma 1): arc i->j with cost -b' yields pi_i - pi_j >= b'.  Hence
    # x_i = y_{i+1} - y_0 = pi_{i+1} - pi_0 (Eqn. (16a)).
    pi = result.potentials
    x = [pi[i + 1] - pi[0] for i in range(lp.num_variables)]
    if not lp.is_feasible(x):
        raise AssertionError(
            "dual-MCF potentials violate the LP constraints; "
            "this indicates a solver bug"
        )
    objective = lp.objective(x)
    if objective != -result.cost:
        # Strong duality ties the LP optimum to the negated flow cost;
        # a mismatch means the potentials are feasible but suboptimal.
        raise AssertionError(
            f"dual-MCF objective {objective} != -flow cost {-result.cost}"
        )
    return DualMcfSolution(
        x=x, objective=objective, flow_cost=result.cost
    )


def _component_split(
    lp: DifferentialLP,
) -> List[Tuple[List[int], List[Tuple[int, int, int]]]]:
    """Connected components plus each component's own constraints.

    One pass over the constraint list buckets every constraint by its
    component root, so restricting the LP to a component no longer
    rescans all constraints (which made decomposition quadratic in the
    constraint count).  Bucket order preserves the original constraint
    order, keeping the sub-LPs identical to a filtered scan.
    """
    n = lp.num_variables
    cons = lp.constraints
    # The dominant sizing-pass shape: only the per-fill width
    # constraints (x_hi - x_lo over consecutive variable pairs), no
    # cross-fill spacing links.  The components are then exactly the
    # variable pairs in order — union-find would derive the same split.
    if 2 * len(cons) == n and all(
        c[0] == 2 * k + 1 and c[1] == 2 * k for k, c in enumerate(cons)
    ):
        return [([2 * k, 2 * k + 1], [c]) for k, c in enumerate(cons)]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in lp.constraints:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for v in range(lp.num_variables):
        groups.setdefault(find(v), []).append(v)
    buckets: Dict[int, List[Tuple[int, int, int]]] = {r: [] for r in groups}
    for con in lp.constraints:
        buckets[find(con[0])].append(con)
    return [(members, buckets[root]) for root, members in groups.items()]


def _sub_lp(
    lp: DifferentialLP,
    members: List[int],
    cons: List[Tuple[int, int, int]],
) -> Tuple[DifferentialLP, List[int]]:
    """Restrict ``lp`` to one component; returns (sub-LP, index map)."""
    local = {v: k for k, v in enumerate(members)}
    sub = DifferentialLP(
        costs=[lp.costs[v] for v in members],
        lowers=[lp.lowers[v] for v in members],
        uppers=[lp.uppers[v] for v in members],
        constraints=[(local[i], local[j], b) for i, j, b in cons],
    )
    return sub, members


# ----------------------------------------------------------------------
# fast paths for the dominant component shapes of the sizing LPs
# ----------------------------------------------------------------------
# A fill-sizing pass decomposes into thousands of tiny components: one
# isolated variable, or the (x_lo, x_hi) pair of a single fill coupled
# only by its width constraint x_hi - x_lo >= w.  Both have closed-form
# optima.  Where the LP has several, the closed forms pick the one the
# generic route returns: SSP starts from zero potentials, so its choice
# among tied optima depends on where the origin lies.  Keeping that
# choice keeps every sized fill, and so every output byte, identical
# whichever route solves a component.
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
