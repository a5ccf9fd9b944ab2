"""GDSII reader: one record iterator, one element state machine.

:func:`iter_stream_records` frames records off a file-like source and
never holds more than one record plus one read-ahead chunk, so peak
memory is bounded by the largest record, not the file — on a
multi-GB contest-class design that is what the runtime/memory score
term of the paper (Eqn. (3)) grades.  :class:`GdsiiStreamReader` runs
the element state machine over those records and yields elements, or
``(layer, datatype, Rect)`` shapes, one at a time.  Every GDSII input
is read this way: :func:`~repro.gdsii.reader.layout_from_gdsii` builds
a layout from :meth:`GdsiiStreamReader.shapes`, and the out-of-core
fill (:func:`~repro.core.stream_fill`) spools the same shapes to disk.

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

from ..geometry import Rect, RectilinearPolygon, polygon_to_rects
from .records import (
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
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    buf = b""
    pos = 0
    base = 0  # stream offset of buf[0]
    eof = False

    def refill(need: int) -> int:
        """Ensure ``need`` bytes are available at ``pos``; return count."""
        nonlocal buf, pos, base, eof
        avail = len(buf) - pos
        if avail >= need:
            return avail
        if pos:
            base += pos
            buf = buf[pos:]
            pos = 0
        parts = [buf]
        while avail < need and not eof:
            chunk = stream.read(max(chunk_size, need - avail))
            if not chunk:
                eof = True
                break
            parts.append(chunk)
            avail += len(chunk)
        buf = b"".join(parts)
        return len(buf) - pos

    while True:
        offset = base + pos
        got = refill(_HEADER.size)
        if got == 0:
            raise ValueError(f"GDSII stream ends before ENDLIB at byte {offset}")
        if got < _HEADER.size:
            raise ValueError(f"truncated GDSII stream at byte {offset}")
        length, rec_type, data_type = _HEADER.unpack_from(buf, pos)
        if length == 0:
            raise ValueError(f"zero-length record before ENDLIB at byte {offset}")
        if length < _HEADER.size:
            raise ValueError(f"corrupt record at byte {offset}")
        if refill(length) < length:
            raise ValueError(f"corrupt record at byte {offset}")
        payload = buf[pos + _HEADER.size : pos + length]
        pos += length
        yield offset, rec_type, data_type, payload
        if rec_type == RecordType.ENDLIB:
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
    decomposed with Gourley–Green.
    """
    points = element_points(element)
    loops = path_to_loops(points, element.width) if element.kind == "path" else [points]
    out: List[Rect] = []
    for loop in loops:
        rect = loop_as_rect(loop)
        if rect is not None:
            out.append(rect)
        else:
            out.extend(polygon_to_rects(RectilinearPolygon(loop)))
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

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def elements(self) -> Iterator[GdsiiElement]:
        """Yield geometry elements in stream order.

        BOUNDARY elements (what the writer emits) and Manhattan PATH
        elements (common in industrial inputs) are parsed; unknown
        element types are skipped.  Each element carries its byte
        offset for error attribution.
        """
        element_layer: Optional[int] = None
        element_datatype: Optional[int] = None
        element_xy: Optional[List[int]] = None
        element_width = 0
        element_kind: Optional[str] = None
        element_offset = 0
        try:
            records = iter_stream_records(
                self._stream, chunk_size=self._chunk_size
            )
            for offset, rec_type, _data_type, payload in records:
                if rec_type == RecordType.LIBNAME:
                    self.name = decode_ascii(payload)
                elif rec_type == RecordType.UNITS:
                    self.user_unit = decode_real8(payload[:8])
                    self.db_unit_meters = decode_real8(payload[8:])
                elif rec_type == RecordType.STRNAME:
                    self.structure_names.append(decode_ascii(payload))
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
        except (struct.error, IndexError):
            # an integer payload that is empty or not whole fields
            raise ValueError(
                f"{str(element_kind).upper()} element at byte {element_offset} has a "
                f"malformed {len(payload)}-byte {_INT_RECORDS[rec_type]} payload"
            ) from None
        finally:
            self.close()

    def shapes(self) -> Iterator[Tuple[int, int, Rect]]:
        """Yield ``(layer, datatype, rect)`` in stream order.

        Elements appear in file order and each expands into its
        rectangles by :func:`element_rects`.
        """
        for element in self.elements():
            for rect in element_rects(element):
                yield element.layer, element.datatype, rect

    def __enter__(self) -> "GdsiiStreamReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
