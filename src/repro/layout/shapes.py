"""The ``(layer, datatype, Rect)`` shape stream behind every layout codec.

GDSII and OASIS files, the out-of-core spill and a
:class:`~repro.layout.Layout` all hold rectangles keyed by layer and
datatype.  Wires carry datatype 0 and dummy fills datatype 1 (the
ICCAD 2014 contest's convention for separating signal geometry from
inserted fill), and the die outline is a wire on the reserved layer 0,
so a round trip through a file keeps the window dissection frame.

Every codec shares two rules from here: reading takes the die and the
layer count from a :class:`ShapeCensus`, and writing emits
:func:`shape_groups` in their one file order.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .. import obs
from ..geometry import Rect, bounding_box
from .drc import DrcRules
from .layout import Layout

__all__ = [
    "DIE_LAYER",
    "FILL_DATATYPE",
    "WIRE_DATATYPE",
    "ShapeCensus",
    "layout_from_shapes",
    "shape_groups",
]

WIRE_DATATYPE = 0
FILL_DATATYPE = 1
#: the die outline is a wire on this reserved layer
DIE_LAYER = 0

Shape = Tuple[int, int, Rect]
ShapeGroup = Tuple[int, int, Iterable[Rect]]


class ShapeCensus:
    """Die, layer count and shape count of a shape stream.

    :meth:`scan` passes the stream through, keeping only the layers'
    wires and fills; once it is exhausted, :attr:`num_shapes`,
    :attr:`num_layers` and :meth:`die` describe the whole stream.
    ``source`` names the format in the no-geometry error.
    """

    def __init__(self, source: str):
        self.source = source
        self.num_shapes = 0
        #: the highest layer number seen (any datatype), at least 1
        self.num_layers = 1
        self._outlines: List[Rect] = []
        self._bbox: Optional[Rect] = None

    def scan(self, shapes: Iterable[Shape]) -> Iterator[Shape]:
        """Yield the wires and fills of ``shapes``, in stream order."""
        outlines = self._outlines
        count = max_layer = 0
        xl = yl = sys.maxsize
        xh = yh = -sys.maxsize
        for layer, datatype, rect in shapes:
            count += 1
            if rect.xl < xl:
                xl = rect.xl
            if rect.yl < yl:
                yl = rect.yl
            if rect.xh > xh:
                xh = rect.xh
            if rect.yh > yh:
                yh = rect.yh
            if layer == DIE_LAYER:
                if datatype == WIRE_DATATYPE:
                    outlines.append(rect)
                continue
            if layer > max_layer:
                max_layer = layer
            if datatype == WIRE_DATATYPE or datatype == FILL_DATATYPE:
                yield layer, datatype, rect
        self.num_shapes = count
        self.num_layers = max_layer or 1
        if count:
            self._bbox = Rect(xl, yl, xh, yh)

    def die(self) -> Rect:
        """The die: the layer-0 wire outline, else the geometry's extent.

        Several outlines (abutted partition frames, doubled-up exports)
        merge into their bounding box — picking the first would make the
        die depend on element order — and the merge is reported on the
        events channel, since it usually signals a malformed export.  A
        stream with no geometry at all has no die.
        """
        outlines = self._outlines
        if len(outlines) == 1:
            return outlines[0]
        if outlines:
            die = bounding_box(outlines)
            assert die is not None
            obs.events.emit(
                "gdsii.multiple_die_outlines",
                level="warning",
                count=len(outlines),
                die=str(die),
            )
            return die
        if self._bbox is None:
            raise ValueError(f"{self.source} stream contains no geometry")
        return self._bbox


def layout_from_shapes(
    shapes: Iterable[Shape], rules: Optional[DrcRules] = None, *, source: str
) -> Layout:
    """Build a :class:`Layout` from a shape stream by the census rules."""
    census = ShapeCensus(source)
    groups: Dict[Tuple[int, int], List[Rect]] = {}
    for layer, datatype, rect in census.scan(shapes):
        groups.setdefault((layer, datatype), []).append(rect)
    layout = Layout(census.die(), census.num_layers, rules)
    for (number, datatype), rects in groups.items():
        if datatype == WIRE_DATATYPE:
            layout.layer(number).add_wires(rects)
        else:
            layout.layer(number).add_fills(rects)
    return layout


def shape_groups(
    die: Rect, layers: Iterable[Tuple[int, Iterable[Rect], Iterable[Rect]]]
) -> Iterator[ShapeGroup]:
    """``(layer, datatype, rects)`` groups in file order.

    ``layers`` gives ``(number, wires, fills)`` in stack order; the die
    outline comes first, then each layer's wires and its fills.
    """
    yield DIE_LAYER, WIRE_DATATYPE, (die,)
    for number, wires, fills in layers:
        yield number, WIRE_DATATYPE, wires
        yield number, FILL_DATATYPE, fills
