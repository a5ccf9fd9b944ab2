"""Scalar oracle of the spill routing and record framing.

:func:`bands_touching` scans the band x-ranges once per shape;
:func:`route` appends one packed record per (shape, band);
:func:`read` and :func:`spool_read` unpack one record at a time.
:meth:`repro.layout.ShapeSpill.route_boxes` (one ``searchsorted`` per
box array) and the spills' ``read_boxes`` must agree with these row for
row, in order.
"""

from typing import Iterator, List, Tuple

from repro.geometry import Rect
from repro.layout import BandPlan, LayerSpool, ShapeSpill
from repro.layout.spill import RECT_RECORD, SHAPE_RECORD


def bands_touching(plan: BandPlan, rect: Rect, halo: int = 0) -> List[int]:
    """Bands whose x-range the closed box of ``rect`` + ``halo`` meets."""
    lo = rect.xl - halo
    hi = rect.xh + halo
    return [
        band
        for band in range(plan.num_bands)
        if lo <= plan.rect(band).xh and hi >= plan.rect(band).xl
    ]


def route(spill: ShapeSpill, layer: int, datatype: int, rect: Rect, halo: int) -> List[int]:
    """Append the shape to every band it can influence within ``halo``."""
    bands = bands_touching(spill.plan, rect, halo)
    for band in bands:
        record = SHAPE_RECORD.pack(layer, datatype, rect.xl, rect.yl, rect.xh, rect.yh)
        spill._append(band, record, 1)
    return bands


def read(spill: ShapeSpill, band: int) -> Iterator[Tuple[int, int, Rect]]:
    """Yield ``(layer, datatype, rect)`` of ``band`` in spill order."""
    for chunk in spill._chunks(band):
        for layer, datatype, xl, yl, xh, yh in SHAPE_RECORD.iter_unpack(chunk):
            yield layer, datatype, Rect(xl, yl, xh, yh)


def spool_add(spool: LayerSpool, layer: int, datatype: int, rect: Rect) -> None:
    """Append one rectangle to the key's spool."""
    spool._append((layer, datatype), RECT_RECORD.pack(rect.xl, rect.yl, rect.xh, rect.yh), 1)


def spool_read(spool: LayerSpool, layer: int, datatype: int) -> Iterator[Rect]:
    """Yield the key's rectangles in the order they were added."""
    for chunk in spool._chunks((layer, datatype)):
        for xl, yl, xh, yh in RECT_RECORD.iter_unpack(chunk):
            yield Rect(xl, yl, xh, yh)
