"""GDSII writer for filled layouts.

Emits a single-structure GDSII library containing every wire and fill
of a :class:`~repro.layout.Layout` as BOUNDARY elements, in the file
order and datatype convention of :mod:`repro.layout.shapes` (wires
datatype 0, dummy fills datatype 1, the die outline on layer 0).

The byte count of the emitted stream is the raw input to the contest
file-size score s_fs (Eqn. (3)); the paper's observation that
*fewer, larger* fills shrink the output file is directly visible here,
since every fill costs one fixed-size BOUNDARY element.

That element is the same 64 bytes for every rectangle but for its
layer, datatype and coordinates, so :func:`encode_boundaries` encodes a
whole shape group at once: an ``(n, 4)`` int64 box array becomes ``n``
copies of one template row (:data:`~repro.gdsii.records.BOUNDARY_ROW`,
which the reader's fast path matches) with the big-endian layer,
datatype and ten XY words written in as array columns.

:class:`GdsiiStreamWriter` is the incremental form: header on
construction, one :meth:`~GdsiiStreamWriter.rectangles` (rects) or
:meth:`~GdsiiStreamWriter.box_chunks` (box arrays) call per shape
group, trailer on :meth:`~GdsiiStreamWriter.close`.  It buffers at
most one chunk of :data:`CHUNK_RECTS` rectangles, so the out-of-core
pipeline can append fills as bands complete while staying
byte-identical to :func:`write_gdsii` for the same shape sequence.
"""

from __future__ import annotations

import io
import struct
from itertools import islice
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from ..geometry import IntArray, Rect, boxes, typed_boxes
from ..layout import Layout, shape_groups
from .records import (BOUNDARY_FIELDS, BOUNDARY_LOOP, BOUNDARY_ROW, DataType, RecordType,
                      encode_ascii, encode_int2, encode_real8, pack_record)

__all__ = [
    "CHUNK_RECTS",
    "GdsiiStreamWriter",
    "encode_boundaries",
    "write_gdsii",
    "gdsii_bytes",
]

# Fixed timestamp: deterministic output so file-size scores and the
# byte-identity round-trip tests are reproducible.
_TIMESTAMP = (2014, 11, 1, 0, 0, 0)

#: rectangles the writer encodes per array pass: 256 KB of rows
CHUNK_RECTS = 4096

_TEMPLATE = np.frombuffer(BOUNDARY_ROW, np.uint8)
_LAYER_AT = BOUNDARY_FIELDS.fields["layer"][1]
_DATATYPE_AT = BOUNDARY_FIELDS.fields["datatype"][1]
_XY_AT = BOUNDARY_FIELDS.fields["xy"][1]
_INT2 = struct.Struct(">h")
_INT4 = struct.Struct(">i")
_INT4_MIN, _INT4_MAX = -(1 << 31), (1 << 31) - 1


def encode_boundaries(layer: int, datatype: int, box: IntArray) -> bytes:
    """The BOUNDARY elements of one ``(layer, datatype)`` group.

    Row ``k`` of the ``(n, 4)`` box array becomes element ``k``: the
    template row with the big-endian int16 layer and datatype and the
    ten big-endian int32 XY words written in, ``n * 64`` bytes in all.
    A layer or datatype outside int16, or a coordinate outside int32,
    raises ``struct.error`` as packing the records one by one does.
    """
    row = _TEMPLATE.copy()
    row[_LAYER_AT : _LAYER_AT + 2] = np.frombuffer(_INT2.pack(layer), np.uint8)
    row[_DATATYPE_AT : _DATATYPE_AT + 2] = np.frombuffer(_INT2.pack(datatype), np.uint8)
    if len(box) and (box.min() < _INT4_MIN or box.max() > _INT4_MAX):
        # packing the first stray coordinate raises struct's own error
        _INT4.pack(int(box[(box < _INT4_MIN) | (box > _INT4_MAX)][0]))
    rows = np.empty((len(box), len(row)), np.uint8)
    rows[:] = row
    rows[:, _XY_AT : _XY_AT + 40].view(">i4")[:] = box[:, BOUNDARY_LOOP]
    return rows.tobytes()


class GdsiiStreamWriter:
    """Incremental GDSII emitter.

    Writes the library/structure header on construction, then the
    BOUNDARY elements of each shape group handed to
    :meth:`rectangles` or :meth:`box_chunks`, and the ENDSTR/ENDLIB
    trailer on :meth:`close`.  Emitting the same shapes in the same
    order as :func:`write_gdsii` produces the same bytes — the writer
    holds no state beyond the running byte count, and buffers at most
    one chunk of :data:`CHUNK_RECTS` rectangles.
    """

    def __init__(self, stream: BinaryIO):
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
        self._write(pack_record(RecordType.LIBNAME, DataType.ASCII, encode_ascii("FILL")))
        self._write(
            pack_record(
                RecordType.UNITS,
                DataType.REAL8,
                # 1 dbu = 1e-3 user units (µm) = 1e-9 m
                encode_real8(1e-3) + encode_real8(1e-9),
            )
        )
        self._write(
            pack_record(
                RecordType.BGNSTR, DataType.INT2, encode_int2(list(_TIMESTAMP * 2))
            )
        )
        self._write(pack_record(RecordType.STRNAME, DataType.ASCII, encode_ascii("TOP")))

    def _write(self, data: bytes) -> None:
        self._stream.write(data)
        self._bytes_written += len(data)

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def boundary(self, layer: int, datatype: int, rect: Rect) -> None:
        """Emit one rectangle BOUNDARY element."""
        self.rectangles(layer, datatype, (rect,))

    def rectangles(self, layer: int, datatype: int, rects: Iterable[Rect]) -> None:
        """One BOUNDARY per rectangle, in order — the call shape of
        :meth:`repro.oasis.OasisStreamWriter.rectangles`.  A coordinate
        that is not an int32 integer raises ``struct.error``, as packing
        the records one by one does."""
        it = iter(rects)

        def chunks() -> Iterator[IntArray]:
            while chunk := list(islice(it, CHUNK_RECTS)):
                box = typed_boxes(chunk)
                if box.dtype != np.int64:  # a float, or an int beyond int64
                    for value in box.reshape(-1).tolist():
                        _INT4.pack(value)
                yield box

        self.box_chunks(layer, datatype, chunks())

    def box_chunks(self, layer: int, datatype: int, chunks: Iterable[IntArray]) -> None:
        """One BOUNDARY per row of each ``(n, 4)`` int64 box array, in order."""
        if self._closed:
            raise ValueError("writer is closed")
        for box in chunks:
            self._write(encode_boundaries(layer, datatype, box))

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


def _slices(box: IntArray) -> Iterator[IntArray]:
    """``box`` in slices of at most :data:`CHUNK_RECTS` rows."""
    return (box[k : k + CHUNK_RECTS] for k in range(0, len(box), CHUNK_RECTS))


def write_gdsii(layout: Layout, stream: BinaryIO) -> int:
    """Serialise ``layout`` as GDSII; returns the number of bytes written.

    Each layer's wires and fills go out as slices of
    :attr:`Layer.wire_boxes` and :attr:`Layer.fill_boxes`,
    :data:`CHUNK_RECTS` rects at a time.
    """
    writer = GdsiiStreamWriter(stream)
    layers = (
        (layer.number, _slices(layer.wire_boxes), _slices(layer.fill_boxes))
        for layer in layout.layers
    )
    for group in shape_groups(boxes((layout.die,), 1), layers):
        writer.box_chunks(*group)
    return writer.close()


def gdsii_bytes(layout: Layout) -> bytes:
    """Serialise ``layout`` to an in-memory GDSII byte string."""
    buf = io.BytesIO()
    write_gdsii(layout, buf)
    return buf.getvalue()
