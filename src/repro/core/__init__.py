"""The paper's primary contribution: planning, candidates, sizing, engine."""

from .candidates import (
    CandidatePlan,
    candidate_area_maps,
    generate_candidates,
    grid_candidates,
    quality_score,
)
from .config import FillConfig
from .engine import DummyFillEngine, FillReport, insert_fills
from .planner import DensityPlan, LayerPlan, PlannerObjective, plan_targets
from .sizing import SizingStats, size_fills, size_window
from .stream import resolve_bands, stream_fill

__all__ = [
    "CandidatePlan",
    "candidate_area_maps",
    "generate_candidates",
    "grid_candidates",
    "quality_score",
    "FillConfig",
    "DummyFillEngine",
    "FillReport",
    "insert_fills",
    "DensityPlan",
    "LayerPlan",
    "PlannerObjective",
    "plan_targets",
    "SizingStats",
    "size_fills",
    "size_window",
    "resolve_bands",
    "stream_fill",
]
