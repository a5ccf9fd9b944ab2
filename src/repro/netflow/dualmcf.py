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
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .graph import FlowNetwork, InfeasibleFlowError, UnboundedFlowError
from .ssp import solve_min_cost_flow

__all__ = [
    "DifferentialLP",
    "DualMcfSolution",
    "LPInfeasibleError",
    "PairLP",
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
class PairLP:
    """Independent one-fill LPs as int64 arrays — the sizing passes' batch.

    Row ``k`` is the two-variable LP

        min  a_k x0 + b_k x1
        s.t. x1 − x0 >= w_k,  l0_k <= x0 <= u0_k,  l1_k <= x1 <= u1_k,

    one fill's (left edge, right edge) pair under its Eqn. (12) width
    constraint.  As a :class:`DifferentialLP` it is the LP with
    variables ``2k``, ``2k + 1`` and constraints ``(2k + 1, 2k, w_k)``;
    :func:`solve_dual_mcf` returns its optimum in that interleaved
    variable order.
    """

    a: np.ndarray
    b: np.ndarray
    l0: np.ndarray
    u0: np.ndarray
    l1: np.ndarray
    u1: np.ndarray
    w: np.ndarray

    @property
    def num_variables(self) -> int:
        return 2 * len(self.a)

    @property
    def num_constraints(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class DualMcfSolution:
    """Optimal solution of a :class:`DifferentialLP` via dual MCF.

    ``x`` is a list, or an int64 array for a :class:`PairLP`.
    """

    x: Union[List[int], np.ndarray]
    objective: int
    flow_cost: int

    def __iter__(self):
        return iter(self.x)


def solve_dual_mcf(
    lp: Union[DifferentialLP, PairLP], *, decompose: bool = True
) -> DualMcfSolution:
    """Solve Eqn. (14) exactly through the Eqn. (15)/(16) dual MCF.

    The flow engine is successive shortest paths
    (:func:`~repro.netflow.ssp.solve_min_cost_flow`).

    With ``decompose=True`` (default) the LP is first split into the
    connected components of its constraint graph, each solved on its
    own anchor node.  Every one-fill component (a :class:`PairLP` row)
    has a closed form, and all of them are solved in one vectorized
    call (:func:`_solve_pairs`); the other components go through SSP.
    A :class:`PairLP` is all such components and never builds a flow
    network.  Pass ``decompose=False`` to benchmark the monolithic
    transformation.
    """
    if isinstance(lp, PairLP):
        obs.metrics.counter("netflow.dual_mcf.solves").inc()
        obs.metrics.histogram("netflow.dual_mcf.components").observe(len(lp.a))
        x0, x1 = _solve_pairs(lp)
        objective = int(np.dot(lp.a, x0) + np.dot(lp.b, x1))
        return DualMcfSolution(
            x=np.column_stack((x0, x1)).ravel(),
            objective=objective,
            flow_cost=-objective,
        )
    if lp.num_variables == 0:
        return DualMcfSolution(x=[], objective=0, flow_cost=0)
    if decompose:
        split = _component_split(lp)
        obs.metrics.counter("netflow.dual_mcf.solves").inc()
        obs.metrics.histogram("netflow.dual_mcf.components").observe(len(split))
        if len(split) > 1:
            x: List[int] = [0] * lp.num_variables
            total_obj = 0
            pairs = [
                (members, cons[0][2])
                for members, cons in split
                if _is_width_pair(members, cons)
            ]
            if pairs:
                lo_v, hi_v = np.array([members for members, _ in pairs]).T
                costs, lowers, uppers = (
                    np.array(column, dtype=np.int64)
                    for column in (lp.costs, lp.lowers, lp.uppers)
                )
                batch = PairLP(
                    costs[lo_v], costs[hi_v], lowers[lo_v], uppers[lo_v],
                    lowers[hi_v], uppers[hi_v],
                    np.array([w for _, w in pairs], dtype=np.int64),
                )
                x0, x1 = _solve_pairs(batch)
                for v, value in zip(
                    lo_v.tolist() + hi_v.tolist(), x0.tolist() + x1.tolist()
                ):
                    x[v] = value
                total_obj += int(np.dot(batch.a, x0) + np.dot(batch.b, x1))
            for members, cons in split:
                if _is_width_pair(members, cons):
                    continue
                sub, back = _sub_lp(lp, members, cons)
                sol = solve_dual_mcf(sub, decompose=False)
                for local, value in enumerate(sol.x):
                    x[back[local]] = value
                total_obj += sol.objective
            return DualMcfSolution(x=x, objective=total_obj, flow_cost=-total_obj)
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
    parent = list(range(lp.num_variables))

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
# the one-fill components in closed form
# ----------------------------------------------------------------------
# A fill-sizing pass decomposes into one component per fill: the
# (x_lo, x_hi) pair coupled only by its width constraint
# x_hi - x_lo >= w, plus a few chains where Eqn. (13) spacing
# constraints link fills.  The pair has a closed-form optimum.  Where
# it has several, the closed form picks the one the generic route
# returns: SSP starts from zero potentials, so its choice among tied
# optima depends on where the origin lies.  Keeping that choice keeps
# every sized fill, and so every output byte, identical whichever route
# solves a component.
_INFEASIBLE_CYCLE_MSG = (
    "differential constraint system is infeasible: negative-cost cycle: "
    "the min-cost flow is unbounded "
    "(the corresponding differential LP is infeasible)"
)


def _is_width_pair(members: List[int], cons: List[Tuple[int, int, int]]) -> bool:
    """Is the component one ``x_hi − x_lo >= w`` pair (``x_lo`` first)?

    The closed form reads the constraint in that direction; a reversed
    pair takes the generic route.
    """
    return len(members) == 2 and len(cons) == 1 and cons[0][:2] == (members[1], members[0])


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(v, lo), hi)


def _solve_pairs(lp: PairLP) -> Tuple[np.ndarray, np.ndarray]:
    """The optimum SSP returns for every row of ``lp``, as ``(x0, x1)``.

    Where a row's optimum is unique this is plain LP reasoning.  Where
    it is not, the rules pick SSP's choice:

    * a zero-cost variable takes the value nearest ``max(0, other)``
      its feasible range allows;
    * on the tie ``a + b = 0`` with ``a < 0``, every ``x0`` from
      ``max(l0, l1 − w)`` to ``hi0`` is optimal, and SSP takes the one
      with the smallest ``|x0| + |x1|``, then the smallest ``x0``;
    * with no costs at all SSP never augments and returns its
      Bellman-Ford start potentials.

    Raises :class:`LPInfeasibleError` when any row has ``u1 < l0 + w``
    (the only possible negative cycle of a pair network:
    ``y0 -> y2 -> y1 -> y0`` with cost ``u1 − w − l0``).
    """
    a, b, l0, u0, l1, u1, w = lp.a, lp.b, lp.l0, lp.u0, lp.l1, lp.u1, lp.w
    if (u1 < l0 + w).any():
        raise LPInfeasibleError(_INFEASIBLE_CYCLE_MSG)
    hi0 = np.minimum(u0, u1 - w)  # top of x0's feasible range
    # a != 0: x0 by the sign pattern, then x1 from x0.
    x0 = np.where(
        a > 0,
        l0,
        np.where(
            (b <= 0) | (a + b < 0),
            hi0,
            np.where(
                a + b > 0,
                _clamp(l1 - w, l0, hi0),
                _clamp(np.minimum(0, -w), np.maximum(l0, l1 - w), hi0),
            ),
        ),
    )
    floor1 = np.maximum(l1, x0 + w)
    x1 = np.where(
        b < 0, u1, np.where(b > 0, floor1, _clamp(np.maximum(0, x0), floor1, u1))
    )
    # a == 0 < |b|: x1 by the sign of b, x0 free.
    x1_b = np.where(b < 0, u1, np.maximum(l1, l0 + w))
    x0_b = _clamp(np.maximum(0, x1_b), l0, np.minimum(u0, x1_b - w))
    # a == b == 0: the Bellman-Ford potentials of the pair network.
    p0 = np.minimum(np.minimum(0, -l0), np.minimum(-l1, -l0 - w))
    p2 = np.minimum(0, p0 + u1)
    p1 = np.minimum(np.minimum(0, p0 + u0), p2 - w)
    free = a == 0
    idle = free & (b == 0)
    x0 = np.where(idle, p1 - p0, np.where(free, x0_b, x0))
    x1 = np.where(idle, p2 - p0, np.where(free, x1_b, x1))
    return x0, x1
