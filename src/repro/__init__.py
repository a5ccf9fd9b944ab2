"""repro — dummy fill insertion with coupling and uniformity constraints.

A from-scratch Python reproduction of Lin, Yu & Pan, *High Performance
Dummy Fill Insertion with Coupling and Uniformity Constraints*
(DAC 2015): geometric (tile-free) dummy fill planning, Alg. 1 candidate
generation, and LP / dual-min-cost-flow fill sizing, evaluated with the
ICCAD 2014 contest scoring model.

Quickstart::

    from repro import FillConfig, Layout, Rect, WindowGrid, insert_fills

    layout = Layout(Rect(0, 0, 4000, 4000), num_layers=3)
    layout.layer(1).add_wire(Rect(100, 100, 900, 200))
    grid = WindowGrid(layout.die, cols=4, rows=4)
    report = insert_fills(layout, grid, FillConfig())
    print(report.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .contracts import (
    ContractViolation,
    check_density,
    check_drc_params,
    check_rect,
)
from .core import (
    DensityPlan,
    DummyFillEngine,
    FillConfig,
    FillReport,
    insert_fills,
    plan_targets,
)
from .density import (
    ScoreCard,
    ScoreWeights,
    analyze_layout,
    compute_metrics,
    score_layout,
)
from .geometry import Rect, RectilinearPolygon
from .layout import DrcRules, Layout, WindowGrid

# Extension modules (imported lazily by attribute in docs/examples):
# repro.eco, repro.litho, repro.oasis, repro.report, repro.cli

__version__ = "1.0.0"

__all__ = [
    "ContractViolation",
    "check_density",
    "check_drc_params",
    "check_rect",
    "DensityPlan",
    "DummyFillEngine",
    "FillConfig",
    "FillReport",
    "insert_fills",
    "plan_targets",
    "ScoreCard",
    "ScoreWeights",
    "analyze_layout",
    "compute_metrics",
    "score_layout",
    "Rect",
    "RectilinearPolygon",
    "DrcRules",
    "Layout",
    "WindowGrid",
    "__version__",
]
