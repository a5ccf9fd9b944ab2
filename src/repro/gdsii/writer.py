"""GDSII writer for filled layouts.

Emits a single-structure GDSII library containing every wire and fill
of a :class:`~repro.layout.Layout` as BOUNDARY elements, in the file
order and datatype convention of :mod:`repro.layout.shapes` (wires
datatype 0, dummy fills datatype 1, the die outline on layer 0).

The byte count of the emitted stream is the raw input to the contest
file-size score s_fs (Eqn. (3)); the paper's observation that
*fewer, larger* fills shrink the output file is directly visible here,
since every fill costs one fixed-size BOUNDARY element.

:class:`GdsiiStreamWriter` is the incremental form: header on
construction, one :meth:`~GdsiiStreamWriter.rectangles` call per shape
group, trailer on :meth:`~GdsiiStreamWriter.close` — nothing is
buffered, so the out-of-core pipeline can append fills as bands
complete while staying byte-identical to :func:`write_gdsii` for the
same shape sequence.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterable

from ..geometry import Rect
from ..layout import Layout, shape_groups
from .records import DataType, RecordType, encode_ascii, encode_int2, encode_int4, encode_real8, pack_record

__all__ = [
    "GdsiiStreamWriter",
    "write_gdsii",
    "gdsii_bytes",
]

# Fixed timestamp: deterministic output so file-size scores and the
# byte-identity round-trip tests are reproducible.
_TIMESTAMP = (2014, 11, 1, 0, 0, 0)


def _boundary_bytes(layer: int, datatype: int, rect: Rect) -> bytes:
    # A rectangle boundary: 5 points, closed loop, counter-clockwise.
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
            pack_record(
                RecordType.DATATYPE, DataType.INT2, encode_int2([datatype])
            ),
            pack_record(RecordType.XY, DataType.INT4, encode_int4(xy)),
            pack_record(RecordType.ENDEL, DataType.NO_DATA),
        )
    )


class GdsiiStreamWriter:
    """Incremental GDSII emitter.

    Writes the library/structure header on construction, then one
    BOUNDARY element per :meth:`boundary` call, and the
    ENDSTR/ENDLIB trailer on :meth:`close`.  Emitting the same shapes
    in the same order as :func:`write_gdsii` produces the same bytes
    — the writer holds no state beyond the running byte count.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        library_name: str = "FILL",
        structure_name: str = "TOP",
        user_unit: float = 1e-3,
        db_unit_meters: float = 1e-9,
    ):
        self._stream = stream
        self._bytes_written = 0
        self._closed = False
        self._write(
            pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
        )
        self._write(
            pack_record(
                RecordType.BGNLIB, DataType.INT2, encode_int2(list(_TIMESTAMP * 2))
            )
        )
        self._write(
            pack_record(
                RecordType.LIBNAME, DataType.ASCII, encode_ascii(library_name)
            )
        )
        self._write(
            pack_record(
                RecordType.UNITS,
                DataType.REAL8,
                encode_real8(user_unit) + encode_real8(db_unit_meters),
            )
        )
        self._write(
            pack_record(
                RecordType.BGNSTR, DataType.INT2, encode_int2(list(_TIMESTAMP * 2))
            )
        )
        self._write(
            pack_record(
                RecordType.STRNAME, DataType.ASCII, encode_ascii(structure_name)
            )
        )

    def _write(self, data: bytes) -> None:
        self._stream.write(data)
        self._bytes_written += len(data)

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def boundary(self, layer: int, datatype: int, rect: Rect) -> None:
        """Emit one rectangle BOUNDARY element."""
        if self._closed:
            raise ValueError("writer is closed")
        self._write(_boundary_bytes(layer, datatype, rect))

    def rectangles(self, layer: int, datatype: int, rects: Iterable[Rect]) -> None:
        """One BOUNDARY per rectangle, in order — the call shape of
        :meth:`repro.oasis.OasisStreamWriter.rectangles`."""
        for rect in rects:
            self.boundary(layer, datatype, rect)

    def close(self) -> int:
        """Write the ENDSTR/ENDLIB trailer; returns total bytes written."""
        if not self._closed:
            self._write(pack_record(RecordType.ENDSTR, DataType.NO_DATA))
            self._write(pack_record(RecordType.ENDLIB, DataType.NO_DATA))
            self._closed = True
        return self._bytes_written

    def __enter__(self) -> "GdsiiStreamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_gdsii(
    layout: Layout,
    stream: BinaryIO,
    *,
    library_name: str = "FILL",
    structure_name: str = "TOP",
    user_unit: float = 1e-3,
    db_unit_meters: float = 1e-9,
    include_wires: bool = True,
) -> int:
    """Serialise ``layout`` as GDSII; returns the number of bytes written.

    ``include_wires=False`` emits a fill-only file, matching contest
    submissions where only inserted geometry is returned.
    """
    writer = GdsiiStreamWriter(
        stream,
        library_name=library_name,
        structure_name=structure_name,
        user_unit=user_unit,
        db_unit_meters=db_unit_meters,
    )
    layers = ((layer.number, layer.wires, layer.fills) for layer in layout.layers)
    for group in shape_groups(layout.die, layers, include_wires=include_wires):
        writer.rectangles(*group)
    return writer.close()


def gdsii_bytes(layout: Layout, **kwargs) -> bytes:
    """Serialise ``layout`` to an in-memory GDSII byte string."""
    buf = io.BytesIO()
    write_gdsii(layout, buf, **kwargs)
    return buf.getvalue()
