"""The shape stream behind every layout codec, as int64 box chunks.

GDSII and OASIS files, the out-of-core spill and a
:class:`~repro.layout.Layout` all hold rectangles keyed by layer and
datatype.  Wires carry datatype 0 and dummy fills datatype 1 (the
ICCAD 2014 contest's convention for separating signal geometry from
inserted fill), and the die outline is a wire on the reserved layer 0,
so a round trip through a file keeps the window dissection frame.

A reader hands its shapes over as ``(layer, datatype, box)`` chunks,
each box an ``(n, 4)`` int64 array of one run of a single (layer,
datatype) group, in stream order; :func:`shape_chunks` groups a
reader's rects into such chunks.  Every codec shares two rules from
here: reading takes the die and the layer count from a
:class:`ShapeCensus`, and writing emits :func:`shape_groups` in their
one file order.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

import numpy as np

from .. import obs
from ..geometry import IntArray, Rect, bounding_box, boxes, rects_of
from .drc import DrcRules
from .layout import Layout

__all__ = [
    "CHUNK_ROWS",
    "DIE_LAYER",
    "FILL_DATATYPE",
    "WIRE_DATATYPE",
    "ShapeCensus",
    "layout_from_shapes",
    "shape_chunks",
    "shape_groups",
    "shape_runs",
]

WIRE_DATATYPE = 0
FILL_DATATYPE = 1
#: the die outline is a wire on this reserved layer
DIE_LAYER = 0

#: most rects :func:`shape_chunks` gathers into one chunk
CHUNK_ROWS = 4096

Chunk = Tuple[int, int, IntArray]
#: what a shape group holds: rects, or chunks of them as box arrays
Item = TypeVar("Item")


def shape_runs(layer: IntArray, datatype: IntArray, box: IntArray) -> Iterator[Chunk]:
    """Rows of ``box`` as ``(layer, datatype, box)`` chunks, one per run
    of rows with equal ``layer`` and ``datatype`` entries, in order."""
    if not len(box):
        return
    cuts = np.flatnonzero((layer[1:] != layer[:-1]) | (datatype[1:] != datatype[:-1])) + 1
    starts = [0, *cuts.tolist()]
    for a, b in zip(starts, starts[1:] + [len(box)]):
        yield int(layer[a]), int(datatype[a]), box[a:b]


def shape_chunks(shapes: Iterable[Tuple[int, int, Union[Rect, IntArray]]]) -> Iterator[Chunk]:
    """Group a shape stream into ``(layer, datatype, box)`` chunks.

    Consecutive rects of one (layer, datatype) gather into one
    ``(n, 4)`` int64 box array of at most :data:`CHUNK_ROWS` rows; a
    box array in the stream is a chunk of its own, passed through in
    place.  Rows keep the stream's order.
    """
    run: List[Rect] = []
    key = (0, 0)
    for layer, datatype, shape in shapes:
        if isinstance(shape, Rect):
            if run and ((layer, datatype) != key or len(run) == CHUNK_ROWS):
                yield (*key, boxes(run, len(run)))
                run = []
            key = (layer, datatype)
            run.append(shape)
            continue
        if run:
            yield (*key, boxes(run, len(run)))
            run = []
        yield layer, datatype, shape
    if run:
        yield (*key, boxes(run, len(run)))


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

    def scan(self, chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        """Yield the wire and fill chunks of ``chunks``, in stream order."""
        outlines = self._outlines
        count = max_layer = 0
        xl = yl = sys.maxsize
        xh = yh = -sys.maxsize
        for layer, datatype, box in chunks:
            if not len(box):
                continue
            count += len(box)
            lo = box.min(axis=0).tolist()
            hi = box.max(axis=0).tolist()
            xl, yl = min(xl, lo[0]), min(yl, lo[1])
            xh, yh = max(xh, hi[2]), max(yh, hi[3])
            if layer == DIE_LAYER:
                if datatype == WIRE_DATATYPE:
                    outlines.extend(rects_of(box))
                continue
            max_layer = max(max_layer, layer)
            if datatype == WIRE_DATATYPE or datatype == FILL_DATATYPE:
                yield layer, datatype, box
        self.num_shapes = count
        self.num_layers = max_layer or 1
        if count:
            self._bbox = Rect(xl, yl, xh, yh)

    def die(self, end: Optional[int] = None) -> Rect:
        """The die: the layer-0 wire outline, else the geometry's extent.

        Several outlines (abutted partition frames, doubled-up exports)
        merge into their bounding box — picking the first would make the
        die depend on element order — and the merge is reported on the
        events channel, since it usually signals a malformed export.  A
        stream with no geometry at all has no die; the error names
        ``end``, the byte offset of the record that ended the stream.
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
            where = "" if end is None else f" before its end record at byte {end}"
            raise ValueError(f"{self.source} stream contains no geometry{where}")
        return self._bbox


def layout_from_shapes(
    chunks: Iterable[Chunk],
    rules: Optional[DrcRules] = None,
    *,
    source: str,
    end: Callable[[], Optional[int]] = lambda: None,
) -> Layout:
    """Build a :class:`Layout` from a box-chunk stream by the census rules.

    ``end()`` gives, once the chunks are exhausted, the byte offset of
    the stream's end record (for :meth:`ShapeCensus.die`'s error).
    """
    census = ShapeCensus(source)
    groups: Dict[Tuple[int, int], List[IntArray]] = {}
    for layer, datatype, box in census.scan(chunks):
        groups.setdefault((layer, datatype), []).append(box)
    layout = Layout(census.die(end()), census.num_layers, rules)
    for (number, datatype), parts in groups.items():
        box = np.concatenate(parts)
        if datatype == WIRE_DATATYPE:
            layout.layer(number).add_wires(box)
        else:
            layout.layer(number).add_fills(box)
    return layout


def shape_groups(
    die: Item, layers: Iterable[Tuple[int, Iterable[Item], Iterable[Item]]]
) -> Iterator[Tuple[int, int, Iterable[Item]]]:
    """``(layer, datatype, items)`` groups in file order.

    ``layers`` gives ``(number, wires, fills)`` in stack order; the die
    outline comes first, then each layer's wires and its fills.  The
    items are rects, or ``(n, 4)`` box-array chunks of them, with
    ``die`` given in the same form.
    """
    yield DIE_LAYER, WIRE_DATATYPE, (die,)
    for number, wires, fills in layers:
        yield number, WIRE_DATATYPE, wires
        yield number, FILL_DATATYPE, fills
