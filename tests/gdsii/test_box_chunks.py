"""The array reader: ``GdsiiStreamReader.box_chunks()`` against the
element state machine (``elements()`` expanded by ``element_rects``).

Both must yield the same shapes in the same order, and fail with the
same message, on every generator family and on hand-built streams whose
runs of writer rows are broken by every other kind of element, with
each break placed across read-chunk boundaries.
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.gdsii import GdsiiStreamReader, element_rects, gdsii_bytes
from repro.gdsii.records import (DataType, RecordType, encode_ascii, encode_int2,
                                 encode_int4, encode_real8, pack_record)
from repro.geometry import Rect
from repro.layout import Layout

from ..test_differential import FAMILIES, SEEDS, build_case

CHUNK_SIZES = (1, 63, 64, 65, 4097)


def _outcome(data, chunk_size, arrays):
    """The stream's ``(layer, datatype, rect)`` shapes and library
    metadata by one of the two readers, or the message it raises."""
    reader = GdsiiStreamReader(data, chunk_size=chunk_size)
    shapes = []
    try:
        if arrays:
            for layer, datatype, box in reader.box_chunks():
                assert box.dtype == np.int64 and box.shape == (len(box), 4) and len(box)
                shapes += [(layer, datatype, Rect(*row)) for row in box.tolist()]
        else:
            for element in reader.elements():
                shapes += [(element.layer, element.datatype, r) for r in element_rects(element)]
    except ValueError as exc:
        return "error", str(exc)
    meta = (reader.name, reader.user_unit, reader.db_unit_meters, reader.structure_names)
    return "ok", shapes, meta


def _same(data, chunk_size=1 << 16):
    want = _outcome(data, chunk_size, arrays=False)
    assert _outcome(data, chunk_size, arrays=True) == want
    return want


def _element(kind, layer, datatype, xy, extra=()):
    records = [
        pack_record(kind, DataType.NO_DATA),
        pack_record(RecordType.LAYER, DataType.INT2, encode_int2([layer])),
        pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([datatype])),
        *extra,
        pack_record(RecordType.XY, DataType.INT4, encode_int4(xy)),
        pack_record(RecordType.ENDEL, DataType.NO_DATA),
    ]
    return b"".join(records)


def _row(layer, datatype, xl, yl, xh, yh):
    """The writer's 64-byte rectangle row."""
    return _element(
        RecordType.BOUNDARY, layer, datatype, [xl, yl, xh, yl, xh, yh, xl, yh, xl, yl]
    )


def _head(name="FILL"):
    return b"".join(
        (
            pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600])),
            pack_record(RecordType.BGNLIB, DataType.INT2, encode_int2([0] * 12)),
            pack_record(RecordType.LIBNAME, DataType.ASCII, encode_ascii(name)),
            pack_record(RecordType.UNITS, DataType.REAL8, encode_real8(1e-3) + encode_real8(1e-9)),
            pack_record(RecordType.BGNSTR, DataType.INT2, encode_int2([0] * 12)),
            pack_record(RecordType.STRNAME, DataType.ASCII, encode_ascii("TOP")),
        )
    )


_TAIL = pack_record(RecordType.ENDSTR, DataType.NO_DATA) + pack_record(RecordType.ENDLIB, DataType.NO_DATA)

_PROPERTY = (
    pack_record(0x2B, DataType.INT2, encode_int2([1])),  # PROPATTR
    pack_record(0x2C, DataType.ASCII, encode_ascii("net")),  # PROPVALUE
)

#: elements that end a run of writer rows: the valid ones read as
#: shapes, the malformed ones raise
BREAKS = {
    "path": _element(RecordType.PATH, 2, 0, [0, 0, 100, 0], (
        pack_record(RecordType.WIDTH, DataType.INT4, encode_int4([11])),
    )),
    "polygon": _element(RecordType.BOUNDARY, 1, 0, [0, 0, 30, 0, 30, 10, 10, 10, 10, 30, 0, 30, 0, 0]),
    "property": _element(
        RecordType.BOUNDARY, 1, 0, [5, 5, 9, 5, 9, 8, 5, 8, 5, 5], _PROPERTY
    ),
    "clockwise": _element(RecordType.BOUNDARY, 1, 0, [5, 5, 5, 8, 9, 8, 9, 5, 5, 5]),
    "open-loop": _element(RecordType.BOUNDARY, 1, 0, [5, 5, 9, 5, 9, 8, 5, 8]),
    # a writer-shaped loop whose corner words hold a box, but whose
    # fourth point is off it: a polygon with a diagonal edge
    "bent-loop": _element(RecordType.BOUNDARY, 1, 0, [5, 5, 9, 5, 9, 8, 5, 7, 5, 5]),
    "other-layer": _row(3, 1, 40, 40, 60, 70),
    "int4-layer": _row(1, 0, 5, 5, 9, 8).replace(
        pack_record(RecordType.LAYER, DataType.INT2, encode_int2([1])),
        pack_record(RecordType.LAYER, DataType.INT4, encode_int2([1])),
    ),
    "degenerate": _row(1, 0, 5, 5, 5, 8),
    "negative-layer": _row(-2, 0, 5, 5, 9, 8),
    "odd-xy": _element(RecordType.BOUNDARY, 1, 0, [5, 5, 9, 5, 9, 8, 5, 8, 5]),
    "empty-xy": _element(RecordType.BOUNDARY, 1, 0, []),
}


def _rows(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.randrange(-500, 500), rng.randrange(-500, 500)
        out.append(_row(1, 0, x, y, x + rng.randrange(1, 90), y + rng.randrange(1, 90)))
    return b"".join(out)


def _stream(kind, before, name="FILL"):
    return _head(name) + _rows(before, before) + BREAKS[kind] + _rows(70, 1) + _TAIL


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_input_and_filled_output(self, family):
        case = build_case(family, SEEDS[0])
        for data in (case.gds, case.fill_gds, *case.eco_gds):
            assert _same(data)[0] == "ok"

    def test_writer_rows_never_reach_the_state_machine(self):
        case = build_case("congested-macros", SEEDS[0])
        with mock.patch("repro.gdsii.stream.element_rects", side_effect=AssertionError):
            shapes = [
                (layer, datatype, Rect(*row))
                for layer, datatype, box in GdsiiStreamReader(case.fill_gds).box_chunks()
                for row in box.tolist()
            ]
        assert shapes == _outcome(case.fill_gds, 1 << 16, arrays=False)[1]

    def test_runs_split_by_layer_and_datatype(self):
        layout = Layout(Rect(0, 0, 100, 100), 2)
        layout.layer(1).add_wires([Rect(0, 0, 5, 5), Rect(10, 0, 15, 5)])
        layout.layer(2).add_fill(Rect(20, 20, 30, 30))
        chunks = list(GdsiiStreamReader(gdsii_bytes(layout)).box_chunks())
        assert [(layer, dt, box.tolist()) for layer, dt, box in chunks] == [
            (0, 0, [[0, 0, 100, 100]]),
            (1, 0, [[0, 0, 5, 5], [10, 0, 15, 5]]),
            (2, 1, [[20, 20, 30, 30]]),
        ]


class TestBrokenRuns:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("kind", sorted(BREAKS))
    def test_break_across_chunk_boundaries(self, kind, chunk_size):
        outcomes = set()
        for name in ("FILL", "FILLS", "F" * 29):  # shift the rows by 0, 2 and 26 bytes
            for before in (0, 1, 2, 15, 16, 17, 63, 64, 65):
                outcome = _same(_stream(kind, before, name), chunk_size)
                outcomes.add(outcome[0])
        assert len(outcomes) == 1

    @pytest.mark.parametrize("kind", sorted(BREAKS))
    def test_cut_streams(self, kind):
        data = _stream(kind, 20)
        start = data.index(BREAKS[kind])
        for cut in range(start - 70, start + len(BREAKS[kind]) + 70):
            for chunk_size in (64, 1 << 16):
                assert _same(data[:cut], chunk_size)[0] == "error"

    @pytest.mark.parametrize("kind", sorted(BREAKS))
    def test_flipped_streams(self, kind):
        data = _stream(kind, 20)
        rng = random.Random(kind)
        for _ in range(60):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            _same(bytes(flipped), rng.choice(CHUNK_SIZES))

    def test_malformed_breaks_raise_at_their_offset(self):
        for kind, offset_of in (("negative-layer", "has negative LAYER -2"),
                                ("odd-xy", "odd XY coordinate count (9)"),
                                ("degenerate", "BOUNDARY element at byte")):
            data = _stream(kind, 20)
            status, message = _same(data)
            assert status == "error"
            assert f"byte {data.index(BREAKS[kind])}" in message and offset_of in message
