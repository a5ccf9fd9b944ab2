"""Rectilinear geometry kernel.

Integer-grid Manhattan geometry used throughout the fill framework:
rectangles (:mod:`~repro.geometry.rect`), 1-D interval arithmetic
(:mod:`~repro.geometry.interval`), scanline boolean operations on
rectangle sets (:mod:`~repro.geometry.boolean`), rectilinear polygons
and their rectangle decompositions (:mod:`~repro.geometry.polygon`,
:mod:`~repro.geometry.poly2rect`), a uniform-grid spatial index
(:mod:`~repro.geometry.grid`), and coordinate-compressed occupancy
rasters with exact free-region recovery, next to the int64 box arrays
the array stages share (:mod:`~repro.geometry.raster`).
"""

from .boolean import (
    canonicalize,
    intersection_area,
    rect_set_intersect,
    rect_set_subtract,
    rect_set_union,
    union_area,
)
from .grid import GridIndex
from .polygon import RectilinearPolygon
from .poly2rect import gourley_green, polygon_to_rects, scanline_decompose
from .raster import (
    BoolArray,
    IntArray,
    boxes,
    merge_mask_runs,
    rects_of,
    strip_occupancy,
    touching,
)
from .rect import Rect, bounding_box

__all__ = [
    "Rect",
    "bounding_box",
    "canonicalize",
    "intersection_area",
    "rect_set_intersect",
    "rect_set_subtract",
    "rect_set_union",
    "union_area",
    "GridIndex",
    "IntArray",
    "BoolArray",
    "boxes",
    "rects_of",
    "touching",
    "strip_occupancy",
    "merge_mask_runs",
    "RectilinearPolygon",
    "gourley_green",
    "polygon_to_rects",
    "scanline_decompose",
]
