"""GDSII reader: one record buffer, one element state machine, and an
array fast path for the writer's rectangle rows.

:func:`iter_stream_records` frames records off a file-like source and
never holds more than one record plus one read-ahead chunk, so peak
memory is bounded by the largest record, not the file — on a
multi-GB contest-class design that is what the runtime/memory score
term of the paper (Eqn. (3)) grades.

:class:`GdsiiStreamReader` reads shapes as ``(layer, datatype, box)``
chunks (:meth:`~GdsiiStreamReader.box_chunks`), each box an ``(n, 4)``
int64 array of one run of a single (layer, datatype) group.  Almost
every element of a fill flow's input is the writer's fixed 64-byte
rectangle row (:data:`~repro.gdsii.records.BOUNDARY_ROW`), so at each
BOUNDARY the reader views the whole rows its read-ahead buffer holds
as one structured array and takes the longest run of rows that match
the template, carry a non-negative layer and hold the writer's closed
counter-clockwise loop of a box with positive extent.  Everything else
— PATHs, polygons, other point orders, property records and every
malformed element — goes through the element state machine
(:meth:`~GdsiiStreamReader.elements` and :func:`element_rects`) from
its own offset, so each typed error keeps its message and byte offset,
and its rectangles join the same chunk stream through
:func:`~repro.layout.shape_chunks`.  Every GDSII input is read this
way: :func:`~repro.gdsii.reader.layout_from_gdsii` builds a layout from
the chunks, and the out-of-core fill (:func:`~repro.core.stream_fill`)
spools them to disk.

The element-to-rectangle conversions live here (``path_to_loops``,
``loop_as_rect``, ``element_rects``), including the exact-width
asymmetric PATH expansion and the odd-XY validation.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..geometry import IntArray, Rect, RectilinearPolygon, polygon_to_rects, rects_of
from ..layout import shape_chunks, shape_runs
from .records import (
    BOUNDARY_FIELDS,
    BOUNDARY_LOOP,
    BOUNDARY_ROW,
    RecordType,
    decode_ascii,
    decode_int2,
    decode_int4,
    decode_real8,
)

__all__ = [
    "GdsiiElement",
    "GdsiiStreamReader",
    "element_points",
    "element_rects",
    "iter_stream_records",
    "loop_as_rect",
    "path_to_loops",
]

_HEADER = struct.Struct(">HBB")

#: names of the element records :meth:`GdsiiStreamReader.elements` decodes
_INT_RECORDS = {
    RecordType.LAYER: "LAYER",
    RecordType.DATATYPE: "DATATYPE",
    RecordType.WIDTH: "WIDTH",
    RecordType.XY: "XY",
}

#: read-ahead granularity of the buffered record iterator
DEFAULT_CHUNK_SIZE = 1 << 16

Source = Union[bytes, bytearray, memoryview, str, "os.PathLike[str]", BinaryIO]

_ROW = BOUNDARY_FIELDS.itemsize
_TEMPLATE = np.frombuffer(BOUNDARY_ROW, BOUNDARY_FIELDS)[0]
_HEADS = ("head0", "head1", "head2", "head3", "head4")
#: byte spans of the template's record headers, for a one-row check
_HEAD_SPANS = tuple(
    (at, at + 4, BOUNDARY_ROW[at : at + 4])
    for at in (BOUNDARY_FIELDS.fields[name][1] for name in _HEADS)
)
#: the XY word holding each of ``(xl, yl, xh, yh)`` in a template loop
_CORNERS = [BOUNDARY_LOOP.index(column) for column in range(4)]
#: every other XY word of the loop, with the corner word it repeats
_REPEATS = [
    (word, _CORNERS[column])
    for word, column in enumerate(BOUNDARY_LOOP)
    if word != _CORNERS[column]
]
#: template rows matched per array pass at the start of a run; each
#: further pass matches four times as many
_FIRST_ROWS = 16


class _Records:
    """The read-ahead buffer of :func:`iter_stream_records`: frames one
    record at a time, or consumes a run of rectangle rows at once."""

    def __init__(self, stream: BinaryIO, chunk_size: int):
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self._stream = stream
        self._chunk_size = chunk_size
        self._buf = b""
        self._pos = 0
        self._base = 0  # stream offset of _buf[0]
        self._eof = False

    def _refill(self, need: int) -> int:
        """Ensure ``need`` bytes are available at the read position;
        return how many are."""
        avail = len(self._buf) - self._pos
        if avail >= need:
            return avail
        if self._pos:
            self._base += self._pos
            self._buf = self._buf[self._pos :]
            self._pos = 0
        parts = [self._buf]
        while avail < need and not self._eof:
            chunk = self._stream.read(max(self._chunk_size, need - avail))
            if not chunk:
                self._eof = True
                break
            parts.append(chunk)
            avail += len(chunk)
        self._buf = b"".join(parts)
        return avail

    def record(self) -> Tuple[int, int, int, bytes]:
        """The next record as ``(offset, rec_type, data_type, payload)``."""
        offset = self._base + self._pos
        got = self._refill(_HEADER.size)
        if got == 0:
            raise ValueError(f"GDSII stream ends before ENDLIB at byte {offset}")
        if got < _HEADER.size:
            raise ValueError(f"truncated GDSII stream at byte {offset}")
        length, rec_type, data_type = _HEADER.unpack_from(self._buf, self._pos)
        if length == 0:
            raise ValueError(f"zero-length record before ENDLIB at byte {offset}")
        if length < _HEADER.size:
            raise ValueError(f"corrupt record at byte {offset}")
        if self._refill(length) < length:
            raise ValueError(f"corrupt record at byte {offset}")
        payload = self._buf[self._pos + _HEADER.size : self._pos + length]
        self._pos += length
        return offset, rec_type, data_type, payload

    def template_run(self) -> Optional[Tuple[IntArray, IntArray, IntArray]]:
        """Consume the longest run of rectangle rows at the read position.

        The run is the whole :data:`_ROW`-byte rows the buffer holds
        from here that equal the writer's template outside their layer,
        datatype and XY payloads, carry a non-negative layer, and hold
        the writer's closed counter-clockwise loop of a box with
        ``xl < xh`` and ``yl < yh`` — the elements the state machine
        would turn into exactly that box.  Returns the run's layers,
        datatypes and boxes, or ``None`` (consuming nothing) when the
        next row is not such a row.
        """
        avail = self._refill(_ROW) // _ROW
        buf, pos = self._buf, self._pos
        if not avail or any(buf[pos + a : pos + b] != head for a, b, head in _HEAD_SPANS):
            return None
        rows = np.frombuffer(buf, BOUNDARY_FIELDS, count=avail, offset=pos)
        xl, yl, xh, yh = _CORNERS
        taken, step = 0, _FIRST_ROWS
        while taken < avail:
            block = rows[taken : taken + step]
            xy = block["xy"]
            ok = (block["layer"] >= 0) & (xy[:, xl] < xy[:, xh]) & (xy[:, yl] < xy[:, yh])
            for word, corner in _REPEATS:
                ok &= xy[:, word] == xy[:, corner]
            for name in _HEADS:
                ok &= block[name] == _TEMPLATE[name]
            good = len(block) if ok.all() else int(ok.argmin())
            taken += good
            if good < len(block):
                break
            step *= 4
        if not taken:
            return None
        self._pos += taken * _ROW
        run = rows[:taken]
        return (
            run["layer"].astype(np.int64),
            run["datatype"].astype(np.int64),
            run["xy"][:, _CORNERS].astype(np.int64),
        )


def iter_stream_records(
    stream: BinaryIO, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Tuple[int, int, int, bytes]]:
    """Yield ``(offset, rec_type, data_type, payload)`` from a stream.

    Each record is framed by :func:`~repro.gdsii.records.pack_record`'s
    layout; iteration ends at ENDLIB, so whatever follows it (GDSII
    files are commonly padded to a 2048-byte multiple with nulls) is
    never read.  The source is read in ``chunk_size`` slices, so memory
    use is bounded by the largest single record, not the file.  The
    yielded ``offset`` is the byte position of the record header in
    the stream; a truncated or corrupt record, and a stream that ends
    (or turns to zero-length records) before ENDLIB, raise a
    ``ValueError`` naming it.
    """
    records = _Records(stream, chunk_size)
    while True:
        record = records.record()
        yield record
        if record[1] == RecordType.ENDLIB:
            return


@dataclass(frozen=True)
class GdsiiElement:
    """One parsed geometry element, positionally attributed.

    ``xy`` is the flat coordinate list of the XY record; ``offset`` is
    the byte position of the element's opening record in the stream,
    carried so conversion errors can name where the element lives.
    """

    kind: str  # "boundary" | "path"
    layer: int
    datatype: int
    xy: Tuple[int, ...]
    width: int = 0
    offset: int = 0


def element_points(element: GdsiiElement) -> List[Tuple[int, int]]:
    """The element's coordinate pairs, validated.

    An odd coordinate count means the XY record lost (or grew) half a
    point — silently pairing ``xy[0::2]`` with ``xy[1::2]`` would drop
    the trailing coordinate and shift nothing else, which corrupts
    geometry undetectably.  Raise instead, naming the element.
    """
    if len(element.xy) % 2:
        raise ValueError(
            f"{element.kind.upper()} element at byte {element.offset} has "
            f"an odd XY coordinate count ({len(element.xy)})"
        )
    return list(zip(element.xy[0::2], element.xy[1::2]))


def path_to_loops(
    points: List[Tuple[int, int]], width: int
) -> List[List[Tuple[int, int]]]:
    """Expand a Manhattan PATH centreline into rectangle loops.

    Each axis-parallel segment becomes one rectangle of the path width
    (square-ended, the GDSII pathtype-2 convention rounded to the
    Manhattan case); diagonal segments are rejected.  Odd widths split
    asymmetrically (``width // 2`` below/left of the centreline, the
    remainder above/right) so the rendered extent is exactly ``width``
    — a symmetric ``width // 2`` split would render a width-``w`` path
    ``w - 1`` wide and silently under-count density on round-trip.
    """
    if width <= 0:
        raise ValueError(f"PATH width {width} too small to expand")
    half_lo = width // 2
    half_hi = width - half_lo
    loops: List[List[Tuple[int, int]]] = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 == x1:
            ylo, yhi = min(y0, y1), max(y0, y1)
            rect = Rect(x0 - half_lo, ylo - half_lo, x0 + half_hi, yhi + half_hi)
        elif y0 == y1:
            xlo, xhi = min(x0, x1), max(x0, x1)
            rect = Rect(xlo - half_lo, y0 - half_lo, xhi + half_hi, y0 + half_hi)
        else:
            raise ValueError(
                f"non-Manhattan PATH segment ({x0},{y0})->({x1},{y1})"
            )
        loops.append(list(rect.corners()))
    return loops


def loop_as_rect(loop: List[Tuple[int, int]]) -> Optional[Rect]:
    """The loop as a :class:`Rect` when it is an axis-aligned box."""
    points = list(loop)
    if len(points) >= 2 and points[0] == points[-1]:
        points = points[:-1]
    if len(points) != 4:
        return None
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    if len(xs) != 2 or len(ys) != 2:
        return None
    expected = {(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1]), (xs[0], ys[1])}
    if set(points) != expected:
        return None
    return Rect(xs[0], ys[0], xs[1], ys[1])


def element_rects(element: GdsiiElement) -> List[Rect]:
    """The element's geometry as rectangles.

    A PATH expands into one loop per segment (:func:`path_to_loops`).
    Rectangular loops convert directly; other rectilinear loops are
    decomposed with Gourley–Green.  A geometry the conversion rejects
    raises its ``ValueError`` prefixed with the element kind and byte
    offset.
    """
    points = element_points(element)
    try:
        loops = path_to_loops(points, element.width) if element.kind == "path" else [points]
        out: List[Rect] = []
        for loop in loops:
            rect = loop_as_rect(loop)
            if rect is not None:
                out.append(rect)
            else:
                out.extend(polygon_to_rects(RectilinearPolygon(loop)))
    except ValueError as exc:
        raise ValueError(
            f"{element.kind.upper()} element at byte {element.offset}: {exc}"
        ) from None
    return out


class GdsiiStreamReader:
    """Pull-based GDSII element reader over a file or byte source.

    Accepts raw bytes (wrapped in a :class:`io.BytesIO`), a filesystem
    path (opened, and closed when iteration finishes), or any readable
    binary stream.  Library metadata (``name``, units, structure
    names) is populated as the corresponding records stream past — it
    is complete only once iteration has reached the first element, or
    the end of the stream.
    """

    def __init__(self, source: Source, *, chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._owns_stream = False
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._stream: BinaryIO = io.BytesIO(bytes(source))
        elif isinstance(source, (str, os.PathLike)):
            self._stream = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
        self._chunk_size = chunk_size
        self.name = ""
        self.user_unit = 1e-3
        self.db_unit_meters = 1e-9
        self.structure_names: List[str] = []
        #: byte offset of the ENDLIB record, once iteration has reached it
        self.end: Optional[int] = None

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def _header(self, name: str, offset: int, payload: bytes) -> None:
        """Decode a library header record; a malformed payload raises a
        ``ValueError`` naming the record and its offset."""
        try:
            if name == "LIBNAME":
                self.name = decode_ascii(payload)
            elif name == "UNITS":
                self.user_unit = decode_real8(payload[:8])
                self.db_unit_meters = decode_real8(payload[8:])
            else:
                self.structure_names.append(decode_ascii(payload))
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{name} record at byte {offset}: {exc}") from None

    def _walk(self, runs: bool) -> Iterator[Union[GdsiiElement, Tuple[int, int, IntArray]]]:
        """The element state machine over the stream's records.

        Yields elements in stream order; with ``runs``, each run of
        rectangle rows at a BOUNDARY (:meth:`_Records.template_run`)
        is consumed at once instead and yielded as its
        ``(layer, datatype, box)`` chunks.
        """
        element_layer: Optional[int] = None
        element_datatype: Optional[int] = None
        element_xy: Optional[List[int]] = None
        element_width = 0
        element_kind: Optional[str] = None
        element_offset = 0
        rec_type = 0
        payload = b""
        try:
            records = _Records(self._stream, self._chunk_size)
            while True:
                if runs and (run := records.template_run()) is not None:
                    element_kind = None
                    yield from shape_runs(*run)
                    continue
                offset, rec_type, _data_type, payload = records.record()
                if rec_type == RecordType.LIBNAME:
                    self._header("LIBNAME", offset, payload)
                elif rec_type == RecordType.UNITS:
                    self._header("UNITS", offset, payload)
                elif rec_type == RecordType.STRNAME:
                    self._header("STRNAME", offset, payload)
                elif rec_type == RecordType.BOUNDARY:
                    element_kind = "boundary"
                    element_layer = element_datatype = element_xy = None
                    element_offset = offset
                elif rec_type == RecordType.PATH:
                    element_kind = "path"
                    element_layer = element_datatype = element_xy = None
                    element_width = 0
                    element_offset = offset
                elif rec_type == RecordType.LAYER and element_kind:
                    element_layer = decode_int2(payload)[0]
                    if element_layer < 0:
                        raise ValueError(
                            f"{element_kind.upper()} element at byte "
                            f"{element_offset} has negative LAYER {element_layer}"
                        )
                elif rec_type == RecordType.DATATYPE and element_kind:
                    element_datatype = decode_int2(payload)[0]
                elif rec_type == RecordType.WIDTH and element_kind == "path":
                    element_width = decode_int4(payload)[0]
                elif rec_type == RecordType.XY and element_kind:
                    element_xy = decode_int4(payload)
                elif rec_type == RecordType.ENDEL and element_kind:
                    if (
                        element_layer is None
                        or element_datatype is None
                        or not element_xy
                    ):
                        raise ValueError(
                            f"{element_kind.upper()} element missing "
                            f"LAYER/DATATYPE/XY (element at byte "
                            f"{element_offset})"
                        )
                    yield GdsiiElement(
                        kind=element_kind,
                        layer=element_layer,
                        datatype=element_datatype,
                        xy=tuple(element_xy),
                        width=element_width,
                        offset=element_offset,
                    )
                    element_kind = None
                elif rec_type == RecordType.ENDLIB:
                    self.end = offset
                    return
        except (struct.error, IndexError):
            # an integer payload that is empty or not whole fields
            raise ValueError(
                f"{str(element_kind).upper()} element at byte {element_offset} has a "
                f"malformed {len(payload)}-byte {_INT_RECORDS[rec_type]} payload"
            ) from None
        finally:
            self.close()

    def elements(self) -> Iterator[GdsiiElement]:
        """Yield geometry elements in stream order.

        BOUNDARY elements (what the writer emits) and Manhattan PATH
        elements (common in industrial inputs) are parsed; unknown
        element types are skipped.  Each element carries its byte
        offset for error attribution.
        """
        for item in self._walk(runs=False):
            if isinstance(item, GdsiiElement):
                yield item

    def box_chunks(self) -> Iterator[Tuple[int, int, IntArray]]:
        """Yield ``(layer, datatype, box)`` in stream order.

        Each ``box`` is an ``(n, 4)`` int64 array of one run of a
        single (layer, datatype) group: a run of rectangle rows read in
        one array pass, or the rectangles of consecutive other elements
        (by :func:`element_rects`), grouped by
        :func:`~repro.layout.shape_chunks`.  The rectangles and their
        order are those of :meth:`elements` expanded by
        :func:`element_rects`, and so is every error.
        """

        def shapes() -> Iterator[Tuple[int, int, Union[Rect, IntArray]]]:
            for item in self._walk(runs=True):
                if isinstance(item, GdsiiElement):
                    for rect in element_rects(item):
                        yield item.layer, item.datatype, rect
                else:
                    yield item

        return shape_chunks(shapes())

    def shapes(self) -> Iterator[Tuple[int, int, Rect]]:
        """Yield ``(layer, datatype, rect)`` in stream order: a
        :class:`Rect` view of :meth:`box_chunks`."""
        for layer, datatype, box in self.box_chunks():
            for rect in rects_of(box):
                yield layer, datatype, rect

    def __enter__(self) -> "GdsiiStreamReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
