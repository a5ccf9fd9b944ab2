"""Tests for the successive-shortest-path min-cost-flow solver.

The engine is cross-checked against ``networkx.network_simplex`` and
against the reduced-cost optimality certificate of
:meth:`FlowResult.verify`.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import (
    FlowNetwork,
    InfeasibleFlowError,
    UnboundedFlowError,
    solve_min_cost_flow,
)

SOLVERS = [solve_min_cost_flow]


def networkx_cost(net: FlowNetwork):
    """Oracle: solve with networkx; returns cost or 'infeasible'."""
    g = nx.DiGraph()
    for u, supply in enumerate(net.supplies):
        g.add_node(u, demand=-supply)
    caps = net.finite_capacities()
    for arc, cap in zip(net.arcs, caps):
        if g.has_edge(arc.tail, arc.head):
            # networkx needs a MultiDiGraph for parallel arcs; collapse
            # is not valid, so signal the caller to skip.
            return "parallel"
        g.add_edge(arc.tail, arc.head, capacity=cap, weight=arc.cost)
    try:
        cost, _ = nx.network_simplex(g)
        return cost
    except nx.NetworkXUnfeasible:
        return "infeasible"


class TestSimpleNetworks:
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_single_arc(self, solve):
        net = FlowNetwork()
        a = net.add_node(supply=5)
        b = net.add_node(supply=-5)
        net.add_arc(a, b, capacity=10, cost=3)
        result = solve(net)
        assert result.flows == [5]
        assert result.cost == 15
        assert result.verify(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_two_paths_prefers_cheap(self, solve):
        net = FlowNetwork()
        s = net.add_node(supply=4)
        t = net.add_node(supply=-4)
        cheap = net.add_arc(s, t, capacity=3, cost=1)
        dear = net.add_arc(s, t, capacity=10, cost=5)
        result = solve(net)
        assert result.flows[cheap] == 3
        assert result.flows[dear] == 1
        assert result.cost == 8
        assert result.verify(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_transshipment_through_middle(self, solve):
        net = FlowNetwork()
        s = net.add_node(supply=7)
        m = net.add_node()
        t = net.add_node(supply=-7)
        net.add_arc(s, m, capacity=None, cost=2)
        net.add_arc(m, t, capacity=None, cost=3)
        result = solve(net)
        assert result.cost == 35
        assert result.verify(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_negative_cost_arc(self, solve):
        net = FlowNetwork()
        s = net.add_node(supply=2)
        t = net.add_node(supply=-2)
        net.add_arc(s, t, capacity=5, cost=-4)
        result = solve(net)
        assert result.cost == -8
        assert result.verify(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_zero_supply_network(self, solve):
        net = FlowNetwork()
        net.add_node()
        net.add_node()
        net.add_arc(0, 1, capacity=5, cost=1)
        result = solve(net)
        assert result.cost == 0
        assert result.flows == [0]

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_empty_network(self, solve):
        assert solve(FlowNetwork()).cost == 0

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_unbalanced_raises(self, solve):
        net = FlowNetwork()
        net.add_node(supply=3)
        net.add_node(supply=-1)
        net.add_arc(0, 1)
        with pytest.raises(InfeasibleFlowError):
            solve(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_disconnected_infeasible(self, solve):
        net = FlowNetwork()
        net.add_node(supply=3)
        net.add_node(supply=-3)
        # No arcs at all.
        with pytest.raises(InfeasibleFlowError):
            solve(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_capacity_bottleneck_infeasible(self, solve):
        net = FlowNetwork()
        s = net.add_node(supply=10)
        t = net.add_node(supply=-10)
        net.add_arc(s, t, capacity=4, cost=1)
        with pytest.raises(InfeasibleFlowError):
            solve(net)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_negative_uncapacitated_cycle_unbounded(self, solve):
        net = FlowNetwork()
        a = net.add_node(supply=1)
        b = net.add_node(supply=-1)
        net.add_arc(a, b, capacity=None, cost=-1)
        net.add_arc(b, a, capacity=None, cost=-1)
        with pytest.raises((UnboundedFlowError, InfeasibleFlowError)):
            solve(net)


class TestNetworkModel:
    def test_node_names(self):
        net = FlowNetwork()
        net.add_node(supply=1, name="src")
        net.add_node(supply=-1, name="dst")
        assert net.node("src") == 0
        assert net.node("dst") == 1

    def test_duplicate_name_rejected(self):
        net = FlowNetwork()
        net.add_node(name="x")
        with pytest.raises(ValueError):
            net.add_node(name="x")

    def test_self_loop_rejected(self):
        net = FlowNetwork()
        net.add_node()
        with pytest.raises(ValueError):
            net.add_arc(0, 0)

    def test_unknown_endpoint_rejected(self):
        net = FlowNetwork()
        net.add_node()
        with pytest.raises(ValueError):
            net.add_arc(0, 5)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        net.add_node()
        net.add_node()
        with pytest.raises(ValueError):
            net.add_arc(0, 1, capacity=-2)

    def test_balance_check(self):
        net = FlowNetwork()
        net.add_node(supply=2)
        assert not net.is_balanced()
        net.add_node(supply=-2)
        assert net.is_balanced()

    def test_supply_mutation(self):
        net = FlowNetwork()
        n = net.add_node(supply=2)
        net.add_supply(n, 3)
        assert net.supplies == [5]
        net.set_supply(n, 0)
        assert net.supplies == [0]


@st.composite
def random_networks(draw):
    """Random balanced networks with non-negative arc costs."""
    n = draw(st.integers(min_value=2, max_value=7))
    net = FlowNetwork()
    supplies = [draw(st.integers(min_value=-6, max_value=6)) for _ in range(n - 1)]
    for s in supplies:
        net.add_node(supply=s)
    net.add_node(supply=-sum(supplies))
    num_arcs = draw(st.integers(min_value=1, max_value=12))
    seen = set()
    for _ in range(num_arcs):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=20)))
        cost = draw(st.integers(min_value=0, max_value=9))
        net.add_arc(u, v, capacity=cap, cost=cost)
    return net


class TestCrossValidation:
    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_ssp_matches_networkx(self, net):
        oracle = networkx_cost(net)
        if oracle == "parallel":
            return
        try:
            result = solve_min_cost_flow(net)
        except InfeasibleFlowError:
            assert oracle == "infeasible"
            return
        assert oracle != "infeasible"
        assert result.cost == oracle
        assert result.verify(net)


class TestVerifyCertificate:
    def test_rejects_wrong_flow(self):
        net = FlowNetwork()
        net.add_node(supply=5)
        net.add_node(supply=-5)
        net.add_arc(0, 1, capacity=10, cost=3)
        from repro.netflow import FlowResult

        bad = FlowResult(flows=[4], cost=12, potentials=[0, -3])
        with pytest.raises(AssertionError):
            bad.verify(net)
        assert not bad.verify(net, strict=False)

    def test_rejects_suboptimal_potentials(self):
        net = FlowNetwork()
        net.add_node(supply=2)
        net.add_node(supply=-2)
        cheap = net.add_arc(0, 1, capacity=3, cost=1)
        dear = net.add_arc(0, 1, capacity=10, cost=5)
        from repro.netflow import FlowResult

        # Suboptimal: uses the dear arc while the cheap has residual.
        bad = FlowResult(flows=[0, 2], cost=10, potentials=[0, 5])
        assert not bad.verify(net, strict=False)
