"""Streaming GDSII reader/writer: record iterator, error offsets,
PATH expansion, multi-die handling, incremental writer parity."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.generator import LayoutSpec, generate_layout
from repro.gdsii import (
    GdsiiStreamReader,
    GdsiiStreamWriter,
    gdsii_bytes,
    iter_stream_records,
    layout_from_gdsii,
    path_to_loops,
)
from repro.gdsii.records import (DataType, RecordType, encode_ascii, encode_int2, encode_int4,
                                 encode_real8, pack_record)
from repro.gdsii.stream import GdsiiElement, element_points
from repro.geometry import Rect
from repro.layout import DrcRules


def _sample_bytes():
    spec = LayoutSpec(name="s", die_size=800, seed=3, num_cell_rects=40)
    return gdsii_bytes(generate_layout(spec))


def _path_stream(layer=encode_int2([1]), datatype=encode_int2([0]), width=encode_int4([11]),
                 xy=encode_int4([0, 0, 100, 0])):
    """A one-PATH stream from raw payloads; the PATH record is at byte 40."""
    records = [(RecordType.HEADER, encode_int2([600])), (RecordType.BGNSTR, bytes(24)),
               (RecordType.STRNAME, b"T\0"), (RecordType.PATH, b""), (RecordType.LAYER, layer),
               (RecordType.DATATYPE, datatype), (RecordType.WIDTH, width), (RecordType.XY, xy),
               (RecordType.ENDEL, b""), (RecordType.ENDSTR, b""), (RecordType.ENDLIB, b"")]
    return b"".join(pack_record(kind, DataType.NO_DATA, payload) for kind, payload in records)


def _boundary_stream(xy):
    """A one-BOUNDARY stream on layer 1; the BOUNDARY record is at byte 40."""
    return _path_stream(xy=encode_int4(xy)).replace(
        pack_record(RecordType.PATH, DataType.NO_DATA), pack_record(RecordType.BOUNDARY, DataType.NO_DATA)
    ).replace(pack_record(RecordType.WIDTH, DataType.NO_DATA, encode_int4([11])), b"")


def _header_stream(libname=encode_ascii("LIB"), units=encode_real8(1e-3) + encode_real8(1e-9)):
    """A stream whose LIBNAME record is at byte 6 and UNITS at byte 10 + len(libname)."""
    records = [(RecordType.HEADER, encode_int2([600])), (RecordType.LIBNAME, libname),
               (RecordType.UNITS, units), (RecordType.ENDLIB, b"")]
    return b"".join(pack_record(kind, DataType.NO_DATA, payload) for kind, payload in records)


def _middle_record(data):
    """Byte offset of the stream's middle record."""
    offsets = [offset for offset, *_ in iter_stream_records(io.BytesIO(data))]
    return offsets[len(offsets) // 2]


def _read_all(data):
    with GdsiiStreamReader(data) as reader:
        return list(reader.shapes())


class TestStreamReader:
    def test_elements_match_in_memory_parse(self):
        layout = generate_layout(
            LayoutSpec(name="s", die_size=800, seed=3, num_cell_rects=40)
        )
        with GdsiiStreamReader(gdsii_bytes(layout)) as reader:
            shapes = list(reader.shapes())
        by_key = {}
        for layer, datatype, rect in shapes:
            by_key.setdefault((layer, datatype), []).append(rect)
        assert by_key.pop((0, 0)) == [layout.die]
        for layer in layout.layers:
            assert by_key.pop((layer.number, 0), []) == layer.wires
            assert by_key.pop((layer.number, 1), []) == layer.fills
        assert by_key == {}
        assert reader.name == "FILL"
        assert reader.structure_names == ["TOP"]

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1 << 16])
    def test_chunk_size_invariant(self, chunk_size):
        data = _sample_bytes()
        with GdsiiStreamReader(data, chunk_size=chunk_size) as reader:
            shapes = list(reader.shapes())
        with GdsiiStreamReader(data) as reference:
            assert shapes == list(reference.shapes())

    def test_reads_from_path_and_stream(self, tmp_path):
        data = _sample_bytes()
        path = tmp_path / "a.gds"
        path.write_bytes(data)
        with GdsiiStreamReader(str(path)) as reader:
            from_path = list(reader.shapes())
        with GdsiiStreamReader(io.BytesIO(data)) as reader:
            from_stream = list(reader.shapes())
        assert from_path == from_stream

    def test_truncated_stream_names_offset(self):
        data = _sample_bytes()
        cut = len(data) // 2 | 1  # odd cut lands mid-record
        with pytest.raises(ValueError, match="at byte"):
            with GdsiiStreamReader(data[:cut]) as reader:
                list(reader.shapes())

    def test_cut_at_record_boundary_names_offset(self):
        # a cut stream must not load as a partial layout
        data = _sample_bytes()
        cut = _middle_record(data)
        with pytest.raises(ValueError, match=f"ends before ENDLIB at byte {cut}$"):
            _read_all(data[:cut])
        # nor one missing only its final ENDLIB as a whole one
        with pytest.raises(ValueError, match=f"at byte {len(data) - 4}$"):
            _read_all(data[:-4])

    def test_zero_length_record_before_endlib_names_offset(self):
        data = _sample_bytes()
        cut = _middle_record(data)
        with pytest.raises(ValueError, match=f"zero-length record before ENDLIB at byte {cut}$"):
            _read_all(data[:cut] + bytes(64))
        # padding after ENDLIB stays accepted
        assert _read_all(data + bytes(64)) == _read_all(data)

    @pytest.mark.parametrize(
        "field, size", [("LAYER", 0), ("LAYER", 1), ("DATATYPE", 3), ("WIDTH", 2), ("XY", 14)]
    )
    def test_bad_payload_length_names_element(self, field, size):
        data = _path_stream(**{field.lower(): bytes(size)})
        match = f"PATH element at byte 40 has a malformed {size}-byte {field} payload"
        with pytest.raises(ValueError, match=match):
            _read_all(data)

    def test_negative_layer_names_element(self):
        with pytest.raises(ValueError, match="byte 40 has negative LAYER -3"):
            layout_from_gdsii(_path_stream(layer=encode_int2([-3])), DrcRules())

    @pytest.mark.parametrize(
        "xy, message",
        [
            ([0, 0, 10, 0, 20, 10, 0, 10, 0, 0], "edge (10, 0)->(20, 10) is neither horizontal nor vertical"),
            ([0, 0, 10, 0, 10, 10, 5, 15, 0, 10, 0, 0], "rectilinear polygons have an even vertex count"),
            ([0, 0, 10, 0, 10, 10], "a rectilinear polygon needs at least 4 vertices"),
        ],
    )
    def test_polygon_errors_name_element(self, xy, message):
        with pytest.raises(ValueError) as info:
            _read_all(_boundary_stream(xy))
        assert str(info.value) == f"BOUNDARY element at byte 40: {message}"

    @pytest.mark.parametrize(
        "width, xy, message",
        [
            (11, [0, 0, 10, 10], "non-Manhattan PATH segment (0,0)->(10,10)"),
            (0, [0, 0, 100, 0], "PATH width 0 too small to expand"),
        ],
    )
    def test_path_errors_name_element(self, width, xy, message):
        data = _path_stream(width=encode_int4([width]), xy=encode_int4(xy))
        with pytest.raises(ValueError) as info:
            _read_all(data)
        assert str(info.value) == f"PATH element at byte 40: {message}"

    @pytest.mark.parametrize("size", [0, 8, 12, 24])
    def test_units_payload_names_record(self, size):
        data = _header_stream(units=(encode_real8(1e-3) * 3)[:size])
        with pytest.raises(ValueError) as info:
            _read_all(data)
        assert str(info.value) == "UNITS record at byte 14: real8 payload must be exactly 8 bytes"

    def test_non_ascii_libname_names_record(self):
        with pytest.raises(ValueError, match="^LIBNAME record at byte 6: 'ascii' codec") as info:
            _read_all(_header_stream(libname=b"\xc3\xa9"))
        assert not isinstance(info.value, UnicodeDecodeError)

    def test_corrupt_record_length_names_offset(self):
        # A record claiming a 2-byte total length is structurally invalid.
        bad = b"\x00\x02\x00\x00"
        with pytest.raises(ValueError, match="corrupt record at byte 0"):
            list(iter_stream_records(io.BytesIO(bad)))

    def test_odd_xy_count_names_element_offset(self):
        element = GdsiiElement(
            kind="boundary", layer=1, datatype=0, xy=(0, 0, 10), offset=1234
        )
        with pytest.raises(ValueError, match="byte 1234"):
            element_points(element)


class TestPathExpansion:
    def test_odd_width_covers_full_width(self):
        # Regression: width 11 must expand to an 11-dbu-wide loop, not 10.
        loops = path_to_loops([(0, 0), (100, 0)], 11)
        (loop,) = loops
        ys = sorted({y for _, y in loop})
        assert ys[-1] - ys[0] == 11

    def test_even_width_split_symmetric(self):
        (loop,) = path_to_loops([(0, 0), (100, 0)], 10)
        ys = sorted({y for _, y in loop})
        assert (ys[0], ys[-1]) == (-5, 5)

    def test_vertical_odd_width(self):
        (loop,) = path_to_loops([(0, 0), (0, 50)], 7)
        xs = sorted({x for x, _ in loop})
        assert xs[-1] - xs[0] == 7

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            path_to_loops([(0, 0), (10, 0)], 0)

    @given(
        width=st.integers(min_value=1, max_value=999),
        span=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=100, deadline=None)
    def test_expanded_area_property(self, width, span):
        # A single horizontal segment of any width covers span x width
        # exactly (plus the symmetric end-cap extension).
        (loop,) = path_to_loops([(0, 0), (span, 0)], width)
        xs = sorted({x for x, _ in loop})
        ys = sorted({y for _, y in loop})
        assert ys[-1] - ys[0] == width
        assert xs[-1] - xs[0] == span + width


class TestMultiDie:
    def _with_two_die_outlines(self):
        buf = io.BytesIO()
        writer = GdsiiStreamWriter(buf)
        writer.boundary(0, 0, Rect(0, 0, 400, 400))
        writer.boundary(0, 0, Rect(600, 0, 1000, 500))
        writer.boundary(1, 0, Rect(10, 10, 60, 40))
        writer.close()
        return buf.getvalue()

    def test_die_is_bounding_box_of_all_outlines(self):
        layout = layout_from_gdsii(self._with_two_die_outlines(), DrcRules())
        assert layout.die == Rect(0, 0, 1000, 500)

    def test_multiple_outlines_emit_warning_event(self):
        buf = io.StringIO()
        obs.events.configure(level="warning", stream=buf)
        try:
            layout_from_gdsii(self._with_two_die_outlines(), DrcRules())
        finally:
            obs.events.configure(level="warning", stream=io.StringIO())
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert any(
            e["event"] == "gdsii.multiple_die_outlines" and e["count"] == 2
            for e in lines
        )


class TestStreamWriter:
    def test_matches_write_gdsii(self):
        spec = LayoutSpec(name="w", die_size=600, seed=5, num_cell_rects=25)
        layout = generate_layout(spec)
        reference = gdsii_bytes(layout)

        buf = io.BytesIO()
        writer = GdsiiStreamWriter(buf)
        writer.boundary(0, 0, layout.die)
        for layer in layout.layers:
            for wire in layer.wires:
                writer.boundary(layer.number, 0, wire)
            for fill in layer.fills:
                writer.boundary(layer.number, 1, fill)
        total = writer.close()
        assert buf.getvalue() == reference
        assert total == len(reference)

    def test_close_is_idempotent_and_seals(self):
        buf = io.BytesIO()
        writer = GdsiiStreamWriter(buf)
        first = writer.close()
        assert writer.close() == first
        with pytest.raises(ValueError, match="closed"):
            writer.boundary(1, 0, Rect(0, 0, 10, 10))

    @given(
        rects=st.lists(
            st.tuples(
                st.integers(0, 500),
                st.integers(0, 500),
                st.integers(1, 100),
                st.integers(1, 100),
            ),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, rects):
        buf = io.BytesIO()
        writer = GdsiiStreamWriter(buf)
        writer.boundary(0, 0, Rect(0, 0, 700, 700))
        expected = []
        for xl, yl, w, h in rects:
            rect = Rect(xl, yl, xl + w, yl + h)
            writer.boundary(1, 0, rect)
            expected.append(rect)
        writer.close()
        with GdsiiStreamReader(buf.getvalue()) as reader:
            shapes = [r for layer, _, r in reader.shapes() if layer == 1]
        assert shapes == expected
