"""Layout model: layers, DRC rules, window dissection, shape streams."""

from .drc import DrcRules, DrcViolation, check_fills
from .layer import Layer
from .layout import Layout
from .shapes import (DIE_LAYER, FILL_DATATYPE, WIRE_DATATYPE, ShapeCensus,
                     layout_from_shapes, shape_chunks, shape_groups, shape_runs)
from .spill import BandPlan, LayerSpool, ShapeSpill
from .window import WindowGrid

__all__ = [
    "DrcRules",
    "DrcViolation",
    "check_fills",
    "Layer",
    "Layout",
    "DIE_LAYER",
    "FILL_DATATYPE",
    "WIRE_DATATYPE",
    "ShapeCensus",
    "layout_from_shapes",
    "shape_chunks",
    "shape_groups",
    "shape_runs",
    "BandPlan",
    "LayerSpool",
    "ShapeSpill",
    "WindowGrid",
]
