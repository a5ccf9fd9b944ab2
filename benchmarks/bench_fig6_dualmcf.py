"""Fig. 6 reproduction: the dual min-cost-flow worked example.

The paper walks one instance through the Eqn. (15)/(16) transformation:

    min x1 + 2 x2 + 3 x3 + 4 x4
    s.t. x1 - x2 >= 5,  x4 - x3 >= 6,  0 <= x <= 10, x in Z

with solution graph Fig. 6(b) yielding x = (5, 0, 0, 6).  This bench
reproduces the instance exactly through the dual MCF and the scipy LP
reference and times both, plus scaled-up random instances of the same
shape.
"""

import random

import pytest
from conftest import emit

from repro.bench import Column, TableArtifact
from repro.netflow import (
    DifferentialLP,
    solve_dual_mcf,
    solve_linprog,
)


def fig6_lp():
    lp = DifferentialLP()
    for c in (1, 2, 3, 4):
        lp.add_variable(c, 0, 10)
    lp.add_constraint(0, 1, 5)
    lp.add_constraint(3, 2, 6)
    return lp


def chain_lp(n, seed=0):
    """A sizing-shaped instance: n variables chained by constraints.

    Bounds are wide enough that any prefix of the chained offsets fits,
    so the instance is feasible by construction for every seed.
    """
    rng = random.Random(seed)
    lp = DifferentialLP()
    for _ in range(n):
        lp.add_variable(rng.randint(-200, 200), 0, 40 * n)
    for i in range(n - 1):
        lp.add_constraint(i + 1, i, rng.randint(-40, 8))
    return lp


def test_fig6_exact(benchmark):
    sol = benchmark(lambda: solve_dual_mcf(fig6_lp()))
    assert sol.x == [5, 0, 0, 6]
    assert sol.objective == 29


def test_fig6_scipy_reference(benchmark):
    sol = benchmark(lambda: solve_linprog(fig6_lp()))
    assert sol.x == [5, 0, 0, 6]


@pytest.mark.parametrize("n", [50, 200])
def test_chain_ssp(benchmark, n):
    lp = chain_lp(n)
    try:
        reference = solve_linprog(lp).objective
    except Exception:
        pytest.skip("random chain infeasible")
    sol = benchmark(lambda: solve_dual_mcf(lp, decompose=False))
    assert sol.objective == reference


def test_fig6_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sol = solve_dual_mcf(fig6_lp())
    net = fig6_lp().to_flow_network()
    table = TableArtifact(
        "fig6",
        [
            Column("nodes", ">6d"),
            Column("arcs", ">6d"),
            Column("x", ">14"),
            Column("objective", ">10d"),
            Column("flow_cost", ">10d"),
        ],
    )
    table.add_row(
        nodes=net.num_nodes,
        arcs=net.num_arcs,
        x=str(sol.x),
        objective=sol.objective,
        flow_cost=sol.flow_cost,
    )
    table.note(
        "Fig. 6 instance: min x1+2x2+3x3+4x4, x1-x2>=5, x4-x3>=6, x in [0,10]"
    )
    table.note(f"flow network supplies: {net.supplies}")
    table.note("paper: x = [5, 0, 0, 6], objective 29")
    emit(results_dir, table)
    assert sol.x == [5, 0, 0, 6]
