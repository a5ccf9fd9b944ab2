"""OASIS (SEMI P39) subset writer/reader for fill layouts.

The paper's introduction names the two interchange formats whose data
volume the file-size score protects: "current layout file standard like
GDSII and OASIS can achieve good reduction in data volume" (§1).
GDSII spends ~58 bytes per rectangle no matter what; OASIS was designed
to exploit exactly the redundancy dummy fill creates — thousands of
equal-sized rectangles on a regular pitch — through three mechanisms,
all implemented here:

* **variable-length integers** — coordinates cost what they need,
* **modal variables** — layer, datatype, width and height are sticky;
  a run of equal-size fills pays for its dimensions once,
* **repetitions** — a row of N equally spaced rectangles is ONE record,
  a lattice of N x M is one grid record.  Three repetition shapes are
  emitted (subset-local type numbering):

  - type 3: horizontal row — ``count``, x-pitch,
  - type 2: vertical column — ``count``, y-pitch,
  - type 1: grid — ``nx x ny`` copies on an (x-pitch, y-pitch) lattice,
    which is how the fill arrays of a full window collapse to a
    handful of bytes.

The subset is self-consistent (what the writer emits the reader parses
back exactly) and covers rectangles only — wires and fills, the same
universe as the GDSII module.  The ``bench_ablation_fileformat``
benchmark measures the resulting size advantage on a filled layout.

:class:`OasisStreamWriter` is the incremental form used by the
out-of-core pipeline: header on construction, one
:meth:`~OasisStreamWriter.rectangles` call per (layer, datatype) shape
group, END record on :meth:`~OasisStreamWriter.close`.  Repetition
compression needs the whole group visible at once, so the writer
buffers one group's rectangles at a time — bounded by the largest
single (layer, datatype) population, not the whole layout.

Layout of an emitted file::

    %SEMI-OASIS\\r\\n
    START  (version "1.0", unit, offset-flag 0)
    CELL   (name)
    RECTANGLE*  (with modal reuse and row/column/grid repetitions)
    END    (padded to 256 bytes, validation scheme 0)
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import chain
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .geometry import IntArray, Rect, boxes, rects_of
from .layout import DrcRules, Layout, layout_from_shapes, shape_chunks, shape_groups

__all__ = [
    "OasisStreamWriter",
    "oasis_bytes",
    "read_oasis",
    "layout_from_oasis",
    "OasisCell",
    "write_uint",
    "write_sint",
    "write_string",
]

MAGIC = b"%SEMI-OASIS\r\n"

_START = 1
_END = 2
#: bytes of the padded END record, record byte included
_END_RECORD = 256
_CELL_NAME = 14
_RECTANGLE = 25

#: Repetition shapes (subset-local type numbering, see module docstring).
_REP_GRID = 1
_REP_VERTICAL = 2
_REP_HORIZONTAL = 3
#: Most copies one repetition may hold.  A count is a varint, so one
#: flipped bit can claim up to 2^63 copies, and the reader would run out
#: of memory (about 250 bytes per rectangle) expanding it before it could
#: fail.  The writer never repeats more than one (layer, datatype, size)
#: group holds, and it splits longer runs at the cap, so every stream it
#: writes reads back.
_MAX_REPEAT = 1 << 20

#: ``("x", count, pitch)`` | ``("y", count, pitch)`` |
#: ``("grid", nx, ny, px, py)``
Repeat = Union[Tuple[str, int, int], Tuple[str, int, int, int, int]]


# ----------------------------------------------------------------------
# primitive encodings
# ----------------------------------------------------------------------
def write_uint(out: bytearray, value: int) -> None:
    """OASIS unsigned integer: 7-bit groups, little-endian, MSB=more."""
    if value < 0:
        raise ValueError("unsigned integer cannot be negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_sint(out: bytearray, value: int) -> None:
    """OASIS signed integer: sign in the LSB, magnitude above."""
    if value < 0:
        write_uint(out, ((-value) << 1) | 1)
    else:
        write_uint(out, value << 1)


def write_string(out: bytearray, text: str) -> None:
    raw = text.encode("ascii")
    write_uint(out, len(raw))
    out.extend(raw)


class _Cursor:
    """Byte cursor for parsing.

    Every read is bounds-checked: running past the end of the buffer
    raises a ``ValueError`` naming the offset, never a bare
    ``IndexError`` (for single bytes) or a silently truncated slice
    (for strings) — the streaming pipeline relies on malformed input
    being loudly attributable.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise ValueError(f"truncated OASIS stream at byte {self.pos}")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uint(self) -> int:
        shift = 0
        value = 0
        while True:
            b = self.byte()
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise ValueError("runaway OASIS integer")

    def sint(self) -> int:
        raw = self.uint()
        magnitude = raw >> 1
        return -magnitude if raw & 1 else magnitude

    def string(self) -> str:
        start = self.pos
        length = self.uint()
        if self.pos + length > len(self.data):
            raise ValueError(
                f"truncated OASIS string at byte {start}: needs {length} "
                f"bytes, stream ends at {len(self.data)}"
            )
        raw = self.data[self.pos : self.pos + length]
        self.pos += length
        return raw.decode("ascii")


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
@dataclass
class _Modal:
    layer: Optional[int] = None
    datatype: Optional[int] = None
    width: Optional[int] = None
    height: Optional[int] = None


def _emit_rectangle(
    out: bytearray,
    modal: _Modal,
    layer: int,
    datatype: int,
    rect: Rect,
    repeat: Optional[Repeat] = None,
) -> None:
    """One RECTANGLE record, reusing modal state where possible.

    ``repeat`` attaches a repetition: ``("x", count, pitch)`` is a
    horizontal row (type 3), ``("y", count, pitch)`` a vertical column
    (type 2), ``("grid", nx, ny, px, py)`` an ``nx x ny`` lattice
    (type 1).  Counts are stored minus two, per OASIS convention.
    """
    # Info byte: S W H X Y R D L  (bit 7 .. bit 0).
    info = 0x18  # X and Y always explicit
    square = rect.width == rect.height
    if square:
        info |= 0x80
    if layer != modal.layer:
        info |= 0x01
    if datatype != modal.datatype:
        info |= 0x02
    if rect.width != modal.width:
        info |= 0x40
    if not square and rect.height != modal.height:
        info |= 0x20
    if repeat is not None:
        info |= 0x04
    out.append(_RECTANGLE)
    out.append(info)
    if info & 0x01:
        write_uint(out, layer)
        modal.layer = layer
    if info & 0x02:
        write_uint(out, datatype)
        modal.datatype = datatype
    if info & 0x40:
        write_uint(out, rect.width)
        modal.width = rect.width
        if square:
            modal.height = rect.width
    if info & 0x20:
        write_uint(out, rect.height)
        modal.height = rect.height
    if square:
        modal.height = rect.width
    write_sint(out, rect.xl)
    write_sint(out, rect.yl)
    if repeat is not None:
        if repeat[0] == "grid":
            _, nx, ny, px, py = repeat
            write_uint(out, _REP_GRID)
            write_uint(out, nx - 2)
            write_uint(out, ny - 2)
            write_uint(out, px)
            write_uint(out, py)
        else:
            axis, count, pitch = repeat
            write_uint(out, _REP_HORIZONTAL if axis == "x" else _REP_VERTICAL)
            write_uint(out, count - 2)
            write_uint(out, pitch)


def _runs(rects: List[Rect]) -> List[Tuple[Rect, int, int]]:
    """Greedy constant-pitch horizontal runs per row.

    Returns ``(anchor, count, pitch)`` items covering every input
    rectangle exactly once, rows in ascending ``yl``, runs
    left-to-right; single rectangles carry ``count=1, pitch=0``.
    Input must all share one (width, height).
    """
    by_row: Dict[int, List[Rect]] = {}
    for r in rects:
        by_row.setdefault(r.yl, []).append(r)
    out: List[Tuple[Rect, int, int]] = []
    for yl in sorted(by_row):
        row = sorted(by_row[yl], key=lambda r: r.xl)
        start = 0
        while start < len(row):
            # Longest run of constant pitch from `start`.
            end = start + 1
            pitch = None
            while end < len(row) and end - start < _MAX_REPEAT:
                step = row[end].xl - row[end - 1].xl
                if pitch is None:
                    pitch = step
                elif step != pitch:
                    break
                end += 1
            count = end - start
            if count >= 2 and pitch is not None and pitch > 0:
                out.append((row[start], count, pitch))
            else:
                out.append((row[start], 1, 0))
                end = start + 1
            start = end
    return out


def _repetitions(rects: List[Rect]) -> List[Tuple[Rect, Optional[Repeat]]]:
    """Collapse same-size rectangles into row/column/grid repetitions.

    Two greedy passes: horizontal constant-pitch runs per row
    (:func:`_runs`), then rows whose runs share (xl, count, x-pitch)
    and repeat at a constant y-pitch stack into grids (or vertical
    columns when the run is a single rectangle).  Every input
    rectangle is covered exactly once; output blocks are sorted by
    (anchor yl, anchor xl) so the emission is order-independent of
    the input.
    """
    runs = _runs(rects)
    by_signature: Dict[Tuple[int, int, int], List[Tuple[Rect, int, int]]] = {}
    for anchor, count, pitch in runs:
        by_signature.setdefault((anchor.xl, count, pitch), []).append(
            (anchor, count, pitch)
        )
    blocks: List[Tuple[Rect, Optional[Repeat]]] = []
    for signature in sorted(by_signature):
        column = sorted(by_signature[signature], key=lambda item: item[0].yl)
        start = 0
        while start < len(column):
            # Longest stack of rows at constant y-pitch from `start`.
            end = start + 1
            y_pitch = None
            while end < len(column) and (end - start + 1) * signature[1] <= _MAX_REPEAT:
                step = column[end][0].yl - column[end - 1][0].yl
                if y_pitch is None:
                    y_pitch = step
                elif step != y_pitch:
                    break
                end += 1
            rows = end - start
            anchor, count, pitch = column[start]
            if rows >= 2 and y_pitch is not None and y_pitch > 0:
                if count >= 2:
                    blocks.append(
                        (anchor, ("grid", count, rows, pitch, y_pitch))
                    )
                else:
                    blocks.append((anchor, ("y", rows, y_pitch)))
            else:
                if count >= 2:
                    blocks.append((anchor, ("x", count, pitch)))
                else:
                    blocks.append((anchor, None))
                end = start + 1
            start = end
    blocks.sort(key=lambda item: (item[0].yl, item[0].xl))
    return blocks


class OasisStreamWriter:
    """Incremental OASIS-subset emitter.

    Writes the header on construction, shape groups as they are
    handed over, and the END record on :meth:`close`.  Emitting the
    same (layer, datatype) groups in the same order as
    :func:`oasis_bytes` produces the same bytes: repetition extraction
    (:func:`_repetitions`) canonicalizes each group regardless of the
    order its rectangles arrive in, and modal state carries across
    calls exactly as it does in the one-shot writer.
    """

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._modal = _Modal()
        self._bytes_written = 0
        self._closed = False
        head = bytearray()
        head.extend(MAGIC)
        head.append(_START)
        write_string(head, "1.0")
        # unit (real type 0: positive integer): grid units per micron.
        head.append(0)
        write_uint(head, 1000)
        write_uint(head, 0)  # offset-flag: table offsets in the END record
        head.append(_CELL_NAME)
        write_string(head, "TOP")  # the one cell, named like the GDSII structure
        self._write(head)

    def _write(self, data: Union[bytes, bytearray]) -> None:
        self._stream.write(bytes(data))
        self._bytes_written += len(data)

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def rectangles(
        self, layer: int, datatype: int, rects: Iterable[Rect]
    ) -> None:
        """Emit one (layer, datatype) shape group, repetition-compressed.

        The group is buffered in full (coordinates only) so equal-size
        runs can collapse into row/column/grid repetitions; this is
        the writer's only unbounded-in-theory allocation and is noted
        in docs/PERFORMANCE.md.
        """
        if self._closed:
            raise ValueError("writer is closed")
        by_size: Dict[Tuple[int, int], List[Rect]] = {}
        for r in rects:
            by_size.setdefault((r.width, r.height), []).append(r)
        out = bytearray()
        for size in sorted(by_size):
            for anchor, repeat in _repetitions(by_size[size]):
                _emit_rectangle(out, self._modal, layer, datatype, anchor, repeat)
        self._write(out)

    def box_chunks(
        self, layer: int, datatype: int, chunks: Iterable[IntArray]
    ) -> None:
        """Emit one shape group given as ``(n, 4)`` int64 box arrays —
        the call shape of :meth:`repro.gdsii.GdsiiStreamWriter.box_chunks`."""
        self.rectangles(layer, datatype, chain.from_iterable(map(rects_of, chunks)))

    def close(self) -> int:
        """Write the padded END record; returns total bytes written."""
        if not self._closed:
            tail = bytearray()
            # END record padded so the END record itself spans 256 bytes.
            tail.append(_END)
            pad = _END_RECORD - 1 - 1  # minus record byte and validation-scheme byte
            tail.extend(b"\x00" * pad)
            write_uint(tail, 0)  # validation scheme 0: none
            self._write(tail)
            self._closed = True
        return self._bytes_written

    def __enter__(self) -> "OasisStreamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def oasis_bytes(layout: Layout) -> bytes:
    """Serialise a layout as an OASIS-subset byte stream."""
    buf = io.BytesIO()
    writer = OasisStreamWriter(buf)
    layers = (
        (layer.number, (layer.wire_boxes,), (layer.fill_boxes,))
        for layer in layout.layers
    )
    for group in shape_groups(boxes((layout.die,), 1), layers):
        writer.box_chunks(*group)
    writer.close()
    return buf.getvalue()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
@dataclass
class OasisCell:
    """Parse result: cell name plus rectangles per (layer, datatype)."""

    name: str = ""
    unit: int = 1000
    rects: Dict[Tuple[int, int], List[Rect]] = field(default_factory=dict)
    #: byte offset of the END record, once the reader has reached it
    end: Optional[int] = None


def _repetition_positions(
    cur: _Cursor, x: int, y: int, record: int
) -> List[Tuple[int, int]]:
    """Expand a repetition spec into anchor positions (reader side).

    Grid copies enumerate rows-outer, columns-inner — matching the
    writer, which anchors every grid at its lowest-leftmost member.
    ``record`` is the byte offset of the RECTANGLE record, named when
    the repetition holds more than :data:`_MAX_REPEAT` copies.
    """
    rep_type = cur.uint()
    if rep_type == _REP_GRID:
        nx, ny, px, py = cur.uint() + 2, cur.uint() + 2, cur.uint(), cur.uint()
    elif rep_type == _REP_VERTICAL:
        nx, ny, px, py = 1, cur.uint() + 2, 0, cur.uint()
    elif rep_type == _REP_HORIZONTAL:
        nx, ny, px, py = cur.uint() + 2, 1, cur.uint(), 0
    else:
        raise ValueError(f"unsupported repetition type {rep_type}")
    if nx * ny > _MAX_REPEAT:
        raise ValueError(
            f"OASIS repetition of {nx * ny} copies in the RECTANGLE record at "
            f"byte {record} exceeds {_MAX_REPEAT}"
        )
    return [(x + a * px, y + b * py) for b in range(ny) for a in range(nx)]


def _shapes(data: bytes, cell: OasisCell) -> Iterator[Tuple[int, int, Rect]]:
    """Yield the stream's ``(layer, datatype, rect)`` in file order.

    The cell's name and unit are set as their records go past.  A
    stream that ends before its END record, or inside it, raises a
    ``ValueError`` naming the offset, like any other truncation.
    """
    if not data.startswith(MAGIC):
        raise ValueError("not an OASIS stream (bad magic at byte 0)")
    cur = _Cursor(data, len(MAGIC))
    modal = _Modal()
    while True:
        start = cur.pos
        record = cur.byte()
        if record == _START:
            version = cur.string()
            if version != "1.0":
                raise ValueError(f"unsupported OASIS version {version!r}")
            real_type = cur.byte()
            if real_type != 0:
                raise ValueError("unsupported unit real type")
            cell.unit = cur.uint()
            cur.uint()  # offset-flag
        elif record == _CELL_NAME:
            cell.name = cur.string()
        elif record == _RECTANGLE:
            info = cur.byte()
            if info & 0x01:
                modal.layer = cur.uint()
            if info & 0x02:
                modal.datatype = cur.uint()
            if info & 0x40:
                modal.width = cur.uint()
            if info & 0x80:  # square
                modal.height = modal.width
            elif info & 0x20:
                modal.height = cur.uint()
            if not info & 0x08 or not info & 0x10:
                raise ValueError("subset requires explicit x and y")
            x = cur.sint()
            y = cur.sint()
            if (
                modal.layer is None
                or modal.datatype is None
                or modal.width is None
                or modal.height is None
            ):
                raise ValueError("RECTANGLE before modal state established")
            positions = [(x, y)]
            if info & 0x04:
                positions = _repetition_positions(cur, x, y, start)
            for px, py in positions:
                rect = Rect(px, py, px + modal.width, py + modal.height)
                yield modal.layer, modal.datatype, rect
        elif record == _END:
            if len(data) - cur.pos < _END_RECORD - 1:
                raise ValueError(f"truncated OASIS END record at byte {cur.pos - 1}")
            cell.end = start
            return
        else:
            raise ValueError(f"unsupported OASIS record {record}")


def read_oasis(data: bytes) -> OasisCell:
    """Parse an OASIS-subset stream back into rectangles."""
    cell = OasisCell()
    for layer, datatype, rect in _shapes(data, cell):
        cell.rects.setdefault((layer, datatype), []).append(rect)
    return cell


def layout_from_oasis(
    data: bytes, rules: Optional[DrcRules] = None
) -> Layout:
    """Reconstruct a :class:`Layout` from an OASIS-subset stream.

    The die, layer count and wire/fill split follow the shape-stream
    rules of :mod:`repro.layout.shapes`, exactly as for GDSII.
    """
    cell = OasisCell()
    layout = layout_from_shapes(
        shape_chunks(_shapes(data, cell)), rules, source="OASIS", end=lambda: cell.end
    )
    layout.name = cell.name or "oasis"
    return layout
