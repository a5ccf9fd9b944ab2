"""Minimum-cost-flow network model.

The paper offloads its per-window sizing LPs to LEMON's min-cost-flow
solvers (§3.3.3, ref. [21]).  This package is the pure-Python
substitute: :class:`FlowNetwork` models a directed transshipment
network with node supplies, arc capacities and arc costs, and the
successive-shortest-path solver (:mod:`~repro.netflow.ssp`) computes
optimal flows and the node potentials (LP duals) that the dual-MCF
transformation consumes.

Conventions:

* node supply > 0 means the node injects flow, < 0 absorbs it; total
  supply must be zero for feasibility,
* ``capacity=None`` means an uncapacitated arc,
* costs may be negative; negative-cost cycles of uncapacitated arcs
  make the problem unbounded (detected by the solvers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Arc", "FlowNetwork", "FlowResult", "InfeasibleFlowError", "UnboundedFlowError"]


class InfeasibleFlowError(Exception):
    """Raised when the supplies cannot be routed (or duals are infeasible)."""


class UnboundedFlowError(Exception):
    """Raised on a negative-cost cycle of uncapacitated arcs."""


@dataclass(frozen=True)
class Arc:
    """One directed arc ``tail -> head`` with capacity and unit cost."""

    tail: int
    head: int
    capacity: Optional[int]
    cost: int

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("arc capacity must be non-negative")


class FlowNetwork:
    """A directed network for minimum-cost transshipment."""

    def __init__(self) -> None:
        self._supplies: List[int] = []
        self._arcs: List[Arc] = []
        self._names: Dict[object, int] = {}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._supplies)

    @property
    def num_arcs(self) -> int:
        return len(self._arcs)

    @property
    def arcs(self) -> List[Arc]:
        return list(self._arcs)

    @property
    def supplies(self) -> List[int]:
        return list(self._supplies)

    @property
    def total_positive_supply(self) -> int:
        return sum(s for s in self._supplies if s > 0)

    def add_node(self, supply: int = 0, name: object = None) -> int:
        """Create a node with the given supply; returns its index."""
        idx = len(self._supplies)
        self._supplies.append(int(supply))
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate node name {name!r}")
            self._names[name] = idx
        return idx

    def node(self, name: object) -> int:
        """Look up a node index by name."""
        return self._names[name]

    def set_supply(self, node: int, supply: int) -> None:
        self._supplies[node] = int(supply)

    def add_supply(self, node: int, delta: int) -> None:
        self._supplies[node] += int(delta)

    def add_arc(
        self, tail: int, head: int, capacity: Optional[int] = None, cost: int = 0
    ) -> int:
        """Create an arc; returns its index.  ``capacity=None`` = uncapped."""
        n = self.num_nodes
        if not (0 <= tail < n and 0 <= head < n):
            raise ValueError(f"arc ({tail},{head}) references unknown nodes")
        if tail == head:
            raise ValueError("self-loop arcs are not allowed")
        self._arcs.append(Arc(tail, head, capacity, int(cost)))
        return len(self._arcs) - 1

    def is_balanced(self) -> bool:
        """True when supplies sum to zero (necessary for feasibility)."""
        return sum(self._supplies) == 0

    def finite_capacities(self) -> List[int]:
        """Capacities with ``None`` replaced by a safe finite bound.

        An optimal flow decomposes into supply-to-demand paths (each
        carrying at most the total positive supply) plus cycles.  Any
        cost-reducing cycle must contain a capacitated arc — a negative
        cycle of purely uncapacitated arcs means the problem is
        unbounded, which the solvers reject up front — so the total
        circulating flow is bounded by the sum of finite capacities.
        Their sum plus the total supply is therefore a valid stand-in
        cap for uncapacitated arcs.
        """
        cap_sum = sum(a.capacity for a in self._arcs if a.capacity is not None)
        bound = max(1, self.total_positive_supply + cap_sum)
        return [a.capacity if a.capacity is not None else bound for a in self._arcs]

    def __repr__(self) -> str:
        return f"FlowNetwork({self.num_nodes} nodes, {self.num_arcs} arcs)"


@dataclass
class FlowResult:
    """Solution of a min-cost-flow problem.

    ``potentials`` are the LP dual values π with the convention that
    every arc with residual capacity satisfies
    ``cost + π[tail] - π[head] >= 0`` (reduced-cost optimality).
    """

    flows: List[int]
    cost: int
    potentials: List[int]

    def verify(self, network: FlowNetwork, *, strict: bool = True) -> bool:
        """Check feasibility and reduced-cost optimality of this result.

        Used by the tests as an independent certificate: a flow passing
        this check is optimal by LP duality, regardless of which solver
        produced it.
        """
        balance = list(network._supplies)
        caps = network.finite_capacities()
        for arc, flow, cap in zip(network.arcs, self.flows, caps):
            if flow < 0 or flow > cap:
                if strict:
                    raise AssertionError(f"flow {flow} violates capacity on {arc}")
                return False
            balance[arc.tail] -= flow
            balance[arc.head] += flow
        if any(b != 0 for b in balance):
            if strict:
                raise AssertionError(f"flow does not satisfy supplies: {balance}")
            return False
        pi = self.potentials
        for arc, flow, cap in zip(network.arcs, self.flows, caps):
            reduced = arc.cost + pi[arc.tail] - pi[arc.head]
            if flow < cap and reduced < 0:
                if strict:
                    raise AssertionError(
                        f"residual arc {arc} has negative reduced cost {reduced}"
                    )
                return False
            if flow > 0 and reduced > 0:
                if strict:
                    raise AssertionError(
                        f"used arc {arc} has positive reduced cost {reduced}"
                    )
                return False
        return True
