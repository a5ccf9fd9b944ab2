"""Min-cost-flow solvers and the dual-MCF LP transformation (§3.3.3)."""

from .difflp import solve_linprog
from .dualmcf import (
    DifferentialLP,
    DualMcfSolution,
    LPInfeasibleError,
    solve_dual_mcf,
)
from .graph import (
    Arc,
    FlowNetwork,
    FlowResult,
    InfeasibleFlowError,
    UnboundedFlowError,
)
from .ssp import solve_min_cost_flow

__all__ = [
    "Arc",
    "FlowNetwork",
    "FlowResult",
    "InfeasibleFlowError",
    "UnboundedFlowError",
    "solve_min_cost_flow",
    "DifferentialLP",
    "DualMcfSolution",
    "LPInfeasibleError",
    "solve_dual_mcf",
    "solve_linprog",
]
