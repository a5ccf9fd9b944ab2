"""Rectilinear geometry kernel.

Integer-grid Manhattan geometry used throughout the fill framework:
rectangles (:mod:`~repro.geometry.rect`), 1-D interval arithmetic
(:mod:`~repro.geometry.interval`), scanline boolean operations on
rectangle sets (:mod:`~repro.geometry.boolean`), rectilinear polygons
and their rectangle decompositions (:mod:`~repro.geometry.polygon`,
:mod:`~repro.geometry.poly2rect`), and per-window coordinate-compressed
tile rasters with exact run recovery, next to the int64 box arrays
every array stage and neighbour search shares
(:mod:`~repro.geometry.raster`).
"""

from .boolean import (
    canonicalize,
    intersection_area,
    rect_set_intersect,
    rect_set_subtract,
    rect_set_union,
    union_area,
)
from .polygon import RectilinearPolygon
from .poly2rect import gourley_green, polygon_to_rects, scanline_decompose
from .raster import (
    BoolArray,
    IntArray,
    boxes,
    near_pairs,
    rects_of,
    tile_runs,
    touching,
    typed_boxes,
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
    "IntArray",
    "BoolArray",
    "boxes",
    "typed_boxes",
    "rects_of",
    "touching",
    "near_pairs",
    "tile_runs",
    "RectilinearPolygon",
    "gourley_green",
    "polygon_to_rects",
    "scanline_decompose",
]
