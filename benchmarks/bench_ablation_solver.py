"""Ablation A2: dual MCF vs the general LP solver (§3.3.3).

The paper's core performance claim: the relaxed sizing problem "is able
to achieve further speedup with dual min-cost flow" over solving the
ILP directly.  This bench times identical differential-constraint
instances (chains shaped like a window's sizing pass) on:

* ``ssp``      — dual MCF via successive shortest paths (ours, default),
* ``scipy``    — ``scipy.optimize.linprog`` (HiGHS), the §3.3.2
  reference standing in for the ILP solver,

and the end-to-end engine on benchmark ``s`` with each backend.
Both backends are asserted to return the same optimum.
"""

import random

import pytest
from conftest import emit

from repro.bench import Column, TableArtifact
from repro.core import DummyFillEngine, FillConfig
from repro.netflow import DifferentialLP, solve_dual_mcf, solve_linprog

from bench_fig6_dualmcf import chain_lp


def windows_lp(num_fills, seed=1):
    """An instance shaped exactly like one horizontal sizing pass:
    (xl, xh) pairs with width constraints plus sparse spacing chains."""
    rng = random.Random(seed)
    lp = DifferentialLP()
    pairs = []
    for _ in range(num_fills):
        x = rng.randint(0, 5000)
        w = rng.randint(30, 150)
        xl = lp.add_variable(rng.randint(-150, 150), x, x + 25)
        xh = lp.add_variable(rng.randint(-150, 150), x + w - 25, x + w)
        lp.add_constraint(xh, xl, 20)
        pairs.append((xl, xh))
    for k in range(0, num_fills - 1, 3):
        # Occasional spacing coupling between consecutive fills.
        lp.add_constraint(pairs[k + 1][0], pairs[k][1], -5000)
    return lp


_SOLVE = {"ssp": solve_dual_mcf, "scipy": solve_linprog}

@pytest.mark.parametrize("backend", list(_SOLVE))
@pytest.mark.parametrize("size", [100, 400])
def test_sizing_lp_backend(benchmark, backend, size):
    lp = windows_lp(size)
    reference = solve_linprog(lp).objective
    solve = _SOLVE[backend]
    sol = benchmark(lambda: solve(lp))
    assert sol.objective == reference


@pytest.mark.parametrize("backend", ["ssp", "scipy"])
def test_chain_lp_backend(benchmark, backend):
    lp = chain_lp(300, seed=3)
    reference = solve_linprog(lp).objective
    if backend == "ssp":
        sol = benchmark(lambda: solve_dual_mcf(lp, decompose=False))
    else:
        sol = benchmark(lambda: solve_linprog(lp))
    assert sol.objective == reference


_engine_secs = {}


@pytest.mark.parametrize("solver", ["mcf-ssp", "lp"])
def test_engine_backend(benchmark, benchmarks_cache, solver):
    bench = benchmarks_cache("s")

    def run():
        layout = bench.fresh_layout()
        report = DummyFillEngine(
            FillConfig(eta=0.2, solver=solver), weights=bench.weights
        ).run(layout, bench.grid)
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    _engine_secs[solver] = report.stage_seconds["sizing"]
    assert report.num_fills > 0


def test_solver_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = TableArtifact(
        "ablation_solver",
        [Column("solver", "<14"), Column("sizing_s", ">10.2f", "sizing s")],
    )
    for solver, secs in _engine_secs.items():
        table.add_row(solver=solver, sizing_s=secs)
    table.note("engine sizing-stage seconds on benchmark s, by LP backend")
    if "mcf-ssp" in _engine_secs and "lp" in _engine_secs:
        ratio = _engine_secs["lp"] / max(_engine_secs["mcf-ssp"], 1e-9)
        table.note(
            f"dual-MCF (ssp) speedup over general LP: {ratio:.2f}x "
            "(paper §3.3.3 claims dual MCF is the faster path)"
        )
    emit(results_dir, table)
