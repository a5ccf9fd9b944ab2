"""Scalar oracle of the GDSII BOUNDARY encoder.

:func:`boundary_bytes` packs one rectangle's five records with
:func:`~repro.gdsii.records.pack_record`, one ``struct.pack`` each.
:func:`repro.gdsii.writer.encode_boundaries`, which writes a whole
shape group as template rows, must return these bytes for every group.
"""

from typing import Iterable

from repro.gdsii.records import DataType, RecordType, encode_int2, encode_int4, pack_record
from repro.geometry import Rect


def boundary_bytes(layer: int, datatype: int, rect: Rect) -> bytes:
    """One rectangle BOUNDARY element: 5 points, closed, counter-clockwise."""
    xy = [
        rect.xl, rect.yl,
        rect.xh, rect.yl,
        rect.xh, rect.yh,
        rect.xl, rect.yh,
        rect.xl, rect.yl,
    ]
    return b"".join(
        (
            pack_record(RecordType.BOUNDARY, DataType.NO_DATA),
            pack_record(RecordType.LAYER, DataType.INT2, encode_int2([layer])),
            pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([datatype])),
            pack_record(RecordType.XY, DataType.INT4, encode_int4(xy)),
            pack_record(RecordType.ENDEL, DataType.NO_DATA),
        )
    )


def group_bytes(layer: int, datatype: int, rects: Iterable[Rect]) -> bytes:
    """The elements of one shape group, one rectangle at a time."""
    return b"".join(boundary_bytes(layer, datatype, rect) for rect in rects)
