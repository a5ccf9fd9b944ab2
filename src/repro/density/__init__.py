"""Density analysis, uniformity metrics, and contest scoring."""

from .analysis import (
    LayerDensity,
    analyze_layer,
    analyze_layout,
    fill_density_map,
    fill_overlay_area,
    metal_density_map,
    overlay_area,
    overlay_map,
    usable_fill_area,
    window_area_map,
    wire_density_map,
)
from .multiwindow import (
    MultiWindowGrid,
    MultiWindowMetrics,
    multiwindow_metrics,
)
from .metrics import (
    DensityMetrics,
    compute_metrics,
    line_hotspots,
    outlier_hotspots,
    variation,
)
from .scoring import (
    RawComponents,
    ScoreCard,
    ScoreMaps,
    ScoreWeights,
    component_score,
    measure_raw_components,
    score_layout,
    score_maps,
    worst_windows,
)

__all__ = [
    "LayerDensity",
    "analyze_layer",
    "analyze_layout",
    "fill_density_map",
    "fill_overlay_area",
    "metal_density_map",
    "overlay_area",
    "overlay_map",
    "usable_fill_area",
    "window_area_map",
    "wire_density_map",
    "DensityMetrics",
    "compute_metrics",
    "line_hotspots",
    "outlier_hotspots",
    "variation",
    "MultiWindowGrid",
    "MultiWindowMetrics",
    "multiwindow_metrics",
    "RawComponents",
    "ScoreCard",
    "ScoreMaps",
    "ScoreWeights",
    "component_score",
    "measure_raw_components",
    "score_layout",
    "score_maps",
    "worst_windows",
]
