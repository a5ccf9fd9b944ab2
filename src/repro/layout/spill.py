"""Spill-to-disk spatial bucketing for the out-of-core fill pipeline.

The streaming reader (:mod:`repro.gdsii.stream`) hands shapes over as
``(layer, datatype, box)`` chunks of int64 box arrays; the engine wants
them grouped by locality so each window-band can be processed with
only its own geometry resident.  This module is the disk-backed
middle: box arrays are routed into per-band chunk files keyed by the
:class:`~repro.layout.WindowGrid`'s column dissection, written through
small append buffers, and read back band by band as box arrays.

* :class:`BandPlan` — contiguous window-column bands, partitioned by
  :func:`repro.parallel.shard_bounds`, the rule that also cuts each
  band into the parts the engine's stages run in.
* :class:`ShapeSpill` — halo-aware routing: a shape lands in every
  band whose x-range it touches within the query halo, so band-local
  neighbour queries answer every in-band query exactly as global
  ones would.  One ``searchsorted`` routes a whole box array.
* :class:`LayerSpool` — order-preserving per-(layer, datatype) spools
  for pass-through geometry (input wires and kept fills) that must
  re-emit in input order.

Both keep one chunk file per key (a band, or a (layer, datatype)) and
share one buffer/flush/finish/read implementation.  All record
framing is fixed-size big-endian int32 (:data:`SHAPE_RECORD`,
:data:`RECT_RECORD`), packed and unpacked a box array at a time; a
coordinate beyond int32 raises ``struct.error`` as packing it alone
would, and a trailing partial record raises a ``ValueError`` naming
the file, mirroring the reader-side error discipline of the stream
parsers.
"""

from __future__ import annotations

import os
import struct
from typing import Any, BinaryIO, Dict, Hashable, Iterator, List, Tuple

import numpy as np

from ..geometry import IntArray, Rect
from ..parallel.shard import shard_bounds
from .shapes import shape_runs
from .window import WindowGrid

__all__ = ["BandPlan", "LayerSpool", "ShapeSpill"]

#: (layer, datatype, xl, yl, xh, yh) — one routed shape.
SHAPE_RECORD = struct.Struct(">iiiiii")
#: (xl, yl, xh, yh) — one spooled rectangle.
RECT_RECORD = struct.Struct(">iiii")

#: records buffered per band/spool before a chunk write
DEFAULT_FLUSH_RECORDS = 4096

#: file-read granularity, in records
_READ_RECORDS = 4096

_INT4_MIN, _INT4_MAX = -(1 << 31), (1 << 31) - 1


def _packed(box: IntArray, *lead: int) -> bytes:
    """The rows of ``box``, each after the ``lead`` words, as big-endian
    int32 records."""
    if len(box) and (box.min() < _INT4_MIN or box.max() > _INT4_MAX):
        # packing the first stray coordinate raises struct's own error
        struct.pack(">i", int(box[(box < _INT4_MIN) | (box > _INT4_MAX)][0]))
    out = np.empty((len(box), len(lead) + 4), dtype=">i4")
    out[:, : len(lead)] = lead
    out[:, len(lead) :] = box
    return out.tobytes()


class BandPlan:
    """Contiguous window-column bands over a :class:`WindowGrid`.

    A band is a run of whole window columns; its rectangle spans the
    full die height.  Bands partition the grid's column-major window
    order into contiguous ranges, so concatenating per-band results in
    ascending band order reproduces the grid-order result exactly —
    the same invariant the parts of a band keep.
    """

    def __init__(self, grid: WindowGrid, num_bands: int):
        if num_bands < 1:
            raise ValueError("num_bands must be at least 1")
        self.grid = grid
        self._bounds: List[Tuple[int, int]] = shard_bounds(
            grid.cols, num_bands
        )
        # Band x-ranges: [window(c0).xl, window(c1-1).xh]
        self._x_ranges: List[Tuple[int, int]] = [
            (grid.window(c0, 0).xl, grid.window(c1 - 1, 0).xh)
            for c0, c1 in self._bounds
        ]

    @property
    def num_bands(self) -> int:
        return len(self._bounds)

    def columns(self, band: int) -> range:
        """Window columns of ``band``, in grid order."""
        c0, c1 = self._bounds[band]
        return range(c0, c1)

    def rect(self, band: int) -> Rect:
        """The band's rectangle: its column span x the full die height."""
        xl, xh = self._x_ranges[band]
        return Rect(xl, self.grid.die.yl, xh, self.grid.die.yh)

    def band_span(self, box: IntArray, halo: int = 0) -> Tuple[IntArray, IntArray]:
        """Per row of ``box``, the first and last band whose x-range the
        closed box of the row + ``halo`` meets (first > last: none).

        Closed-box contact (not positive overlap): a shape exactly
        ``halo`` away can still decide a spacing query, so routing
        must over-approximate, never under.  Bands are contiguous and
        ascending, so each end is one ``searchsorted`` over the rows.
        """
        lows, highs = np.array(self._x_ranges, dtype=np.int64).T
        first = np.searchsorted(highs, box[:, 0] - halo, "left")
        last = np.searchsorted(lows, box[:, 2] + halo, "right") - 1
        return first, last

    def band_of_x(self, x: int) -> int:
        """The band owning coordinate ``x`` (clamped to the die)."""
        for band, (xl, xh) in enumerate(self._x_ranges):
            if x < xh:
                return band
        return self.num_bands - 1


class _Spill:
    """Append buffers flushed to one chunk file per key.

    Records append through small in-memory buffers; each buffer flush
    is one *chunk* write.  ``bytes_spilled``/``records``/``chunks``
    feed the ``stream.*`` observability counters.  A spill is written,
    then finished (:meth:`finish`), then read.
    """

    #: the fixed-size record of one entry
    _record: struct.Struct

    def __init__(
        self,
        directory: str,
        name: str,
        *,
        flush_records: int = DEFAULT_FLUSH_RECORDS,
    ):
        if flush_records < 1:
            raise ValueError("flush_records must be at least 1")
        self._directory = directory
        self._name = name
        self._flush_records = flush_records
        self._buffers: Dict[Hashable, List[bytes]] = {}
        self._buffered: Dict[Hashable, int] = {}
        self._handles: Dict[Hashable, BinaryIO] = {}
        self._counts: Dict[Hashable, int] = {}
        self._finished = False
        self.bytes_spilled = 0
        self.chunks = 0

    def _path(self, key: Any) -> str:
        raise NotImplementedError

    @property
    def records(self) -> int:
        return sum(self._counts.values())

    def _append(self, key: Hashable, records: bytes, count: int) -> None:
        """Buffer ``count`` packed records; flush once the key's buffer
        holds at least ``flush_records``."""
        if self._finished:
            raise ValueError("spill is finished")
        self._buffers.setdefault(key, []).append(records)
        self._counts[key] = self._counts.get(key, 0) + count
        self._buffered[key] = self._buffered.get(key, 0) + count
        if self._buffered[key] >= self._flush_records:
            self._flush(key)

    def _flush(self, key: Hashable) -> None:
        buffer = self._buffers[key]
        if not buffer:
            return
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = open(self._path(key), "wb")
        data = b"".join(buffer)
        handle.write(data)
        buffer.clear()
        self._buffered[key] = 0
        self.bytes_spilled += len(data)
        self.chunks += 1

    def finish(self) -> None:
        """Flush buffers and close handles; the spill becomes read-only."""
        if self._finished:
            return
        for key in self._buffers:
            self._flush(key)
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._finished = True

    def _chunks(self, key: Hashable) -> Iterator[bytes]:
        """Yield the key's records as byte chunks of whole records, at
        most :data:`_READ_RECORDS` each, in the order they were added.

        A partial record at the end of the chunk file raises a
        ``ValueError`` naming the file.
        """
        if not self._finished:
            raise ValueError("spill must be finished before reading")
        if key not in self._counts:
            return
        path = self._path(key)
        size = self._record.size
        with open(path, "rb") as handle:
            carry = b""
            while True:
                data = handle.read(size * _READ_RECORDS - len(carry))
                if not data:
                    break
                data = carry + data
                whole = len(data) - len(data) % size
                if whole:
                    yield data[:whole]
                carry = data[whole:]
            if carry:
                raise ValueError(
                    f"corrupt spill chunk {path}: {len(carry)} trailing bytes "
                    f"(record size {size})"
                )

    def _read_arrays(self, key: Hashable) -> Iterator[IntArray]:
        """The key's records as int64 arrays of one row per record, at
        most :data:`_READ_RECORDS` rows each, in the order they were added."""
        width = self._record.size // 4
        for chunk in self._chunks(key):
            yield np.frombuffer(chunk, ">i4").reshape(-1, width).astype(np.int64)


class ShapeSpill(_Spill):
    """Per-band shape chunk files with halo routing."""

    _record = SHAPE_RECORD

    def __init__(
        self,
        plan: BandPlan,
        directory: str,
        name: str,
        *,
        flush_records: int = DEFAULT_FLUSH_RECORDS,
    ):
        super().__init__(directory, name, flush_records=flush_records)
        self.plan = plan

    def _path(self, band: int) -> str:
        return os.path.join(self._directory, f"{self._name}-band{band:04d}.bin")

    def add_boxes(self, band: int, layer: int, datatype: int, box: IntArray) -> None:
        """Append the rows of an ``(n, 4)`` box array to one band."""
        if len(box):
            self._append(band, _packed(box, layer, datatype), len(box))

    def route_boxes(self, layer: int, datatype: int, box: IntArray, halo: int) -> None:
        """Append each row to every band it can influence within ``halo``
        (:meth:`BandPlan.band_span`), keeping the rows' order per band."""
        first, last = self.plan.band_span(box, halo)
        for band in range(self.plan.num_bands):
            self.add_boxes(band, layer, datatype, box[(first <= band) & (band <= last)])

    def read_boxes(self, band: int) -> Iterator[Tuple[int, int, IntArray]]:
        """Yield ``band``'s shapes as ``(layer, datatype, box)`` chunks,
        one per run of a single (layer, datatype), in spill order."""
        for rows in self._read_arrays(band):
            yield from shape_runs(rows[:, 0], rows[:, 1], rows[:, 2:])


class LayerSpool(_Spill):
    """Order-preserving per-(layer, datatype) rectangle spools.

    The write phase re-emits input wires and surviving fills in their
    original order; spooling them to disk during the scan pass keeps
    the pass-through geometry out of memory without disturbing that
    order.
    """

    _record = RECT_RECORD

    def _path(self, key: Tuple[int, int]) -> str:
        layer, datatype = key
        return os.path.join(
            self._directory, f"{self._name}-l{layer:04d}-d{datatype:02d}.bin"
        )

    def add_boxes(self, layer: int, datatype: int, box: IntArray) -> None:
        """Append the rows of an ``(n, 4)`` box array to the key's spool."""
        if len(box):
            self._append((layer, datatype), _packed(box), len(box))

    def count(self, layer: int, datatype: int) -> int:
        return self._counts.get((layer, datatype), 0)

    def keys(self) -> List[Tuple[int, int]]:
        """Spooled (layer, datatype) keys, sorted."""
        return sorted(self._counts)

    def read_boxes(self, layer: int, datatype: int) -> Iterator[IntArray]:
        """The key's rectangles as ``(n, 4)`` int64 box arrays of at most
        :data:`_READ_RECORDS` rows, in the order they were added."""
        return self._read_arrays((layer, datatype))
