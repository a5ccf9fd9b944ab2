"""GDSII reader: rebuild a :class:`~repro.layout.Layout` from a stream.

The shapes come from :meth:`~repro.gdsii.stream.GdsiiStreamReader.box_chunks`
as int64 box arrays: the writer's rectangle rows are read a buffer of
rows at a time, and other rectilinear boundaries are decomposed through
Gourley–Green, mirroring the "convert polygons to rectangles" front end
of the paper's flow (Fig. 3).  A layer's wires go into the layout as
one box array.  The
die, layer count and wire/fill split follow the shape-stream rules of
:mod:`repro.layout.shapes`, the same ones the OASIS reader and the
out-of-core :func:`~repro.core.stream_fill` scan apply.
"""

from __future__ import annotations

from typing import Optional

from ..layout import DrcRules, Layout, layout_from_shapes
from .stream import GdsiiStreamReader

__all__ = ["layout_from_gdsii"]


def layout_from_gdsii(
    data: bytes, rules: Optional[DrcRules] = None
) -> Layout:
    """Reconstruct a :class:`Layout` from GDSII bytes.

    The die is the outline boundary on
    :data:`~repro.layout.shapes.DIE_LAYER` when present (the bounding
    box of all such outlines when there are several), otherwise the
    bounding box of all geometry.
    """
    reader = GdsiiStreamReader(data)
    layout = layout_from_shapes(
        reader.box_chunks(), rules, source="GDSII", end=lambda: reader.end
    )
    layout.name = reader.name or "gdsii"
    return layout
