"""Round-trip and file-size tests for the GDSII writer/reader."""

import io

import pytest

from repro.gdsii import (
    BYTES_PER_BOUNDARY,
    HEADER_OVERHEAD_BYTES,
    GdsiiStreamReader,
    file_size_mb,
    gdsii_bytes,
    layout_from_gdsii,
    measure_file_size,
    predict_fill_bytes,
    write_gdsii,
)
from repro.geometry import Rect
from repro.layout import Layout


def shapes_by_key(data):
    """The stream's rectangles per (layer, datatype), in file order."""
    by_key = {}
    for layer, datatype, rect in GdsiiStreamReader(data).shapes():
        by_key.setdefault((layer, datatype), []).append(rect)
    return by_key


def sample_layout():
    layout = Layout(Rect(0, 0, 1000, 1000), num_layers=3, name="t")
    layout.layer(1).add_wire(Rect(0, 0, 100, 20))
    layout.layer(1).add_wire(Rect(0, 50, 100, 70))
    layout.layer(2).add_wire(Rect(10, 10, 30, 200))
    layout.layer(1).add_fill(Rect(200, 200, 260, 260))
    layout.layer(3).add_fill(Rect(500, 500, 540, 560))
    return layout


def fill_only_layout():
    """:func:`sample_layout` without its wires."""
    layout = sample_layout()
    fills_only = Layout(layout.die, layout.num_layers)
    for n in layout.layer_numbers:
        fills_only.layer(n).add_fills(layout.layer(n).fills)
    return fills_only


class TestRoundTrip:
    def test_layout_roundtrip(self):
        layout = sample_layout()
        data = gdsii_bytes(layout)
        back = layout_from_gdsii(data)
        assert back.die == layout.die
        assert back.num_layers == layout.num_layers
        for n in layout.layer_numbers:
            assert sorted(back.layer(n).wires) == sorted(layout.layer(n).wires)
            assert sorted(back.layer(n).fills) == sorted(layout.layer(n).fills)

    def test_wires_and_fills_distinguished_by_datatype(self):
        data = gdsii_bytes(sample_layout())
        by_key = shapes_by_key(data)
        assert by_key[1, 0]  # wires, datatype 0
        assert by_key[1, 1]  # fills, datatype 1
        assert by_key[3, 1]

    def test_fill_only_output(self):
        # a layout without wires writes no wire records
        by_key = shapes_by_key(gdsii_bytes(fill_only_layout()))
        assert (1, 0) not in by_key
        assert by_key[1, 1]

    def test_library_metadata(self):
        reader = GdsiiStreamReader(gdsii_bytes(sample_layout()))
        list(reader.shapes())
        assert reader.name == "FILL"
        assert reader.structure_names == ["TOP"]
        assert reader.user_unit == pytest.approx(1e-3)
        assert reader.db_unit_meters == pytest.approx(1e-9)

    def test_deterministic_output(self):
        a = gdsii_bytes(sample_layout())
        b = gdsii_bytes(sample_layout())
        assert a == b

    def test_empty_layout_roundtrip(self):
        layout = Layout(Rect(0, 0, 100, 100), num_layers=1)
        back = layout_from_gdsii(gdsii_bytes(layout))
        assert back.die == layout.die

    def test_no_geometry_at_all_rejected(self):
        with pytest.raises(ValueError):
            # Craft a stream with no boundaries by reading/writing an
            # empty library manually.
            from repro.gdsii.records import (
                DataType,
                RecordType,
                encode_ascii,
                encode_int2,
                pack_record,
            )

            stream = (
                pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
                + pack_record(RecordType.ENDLIB, DataType.NO_DATA)
            )
            layout_from_gdsii(stream)


class TestFileSize:
    def test_measure_matches_bytes(self):
        layout = sample_layout()
        assert measure_file_size(layout) == len(gdsii_bytes(layout))
        fills_only = fill_only_layout()
        assert measure_file_size(fills_only) == len(gdsii_bytes(fills_only))

    def test_header_overhead_constant_is_exact(self):
        # an empty layout is the framing plus the die outline boundary
        data = gdsii_bytes(Layout(Rect(0, 0, 100, 100), num_layers=1))
        assert HEADER_OVERHEAD_BYTES == 106
        assert len(data) == HEADER_OVERHEAD_BYTES + BYTES_PER_BOUNDARY == 170

    def test_boundary_cost_constant_is_exact(self):
        layout = Layout(Rect(0, 0, 100, 100), num_layers=1)
        base = measure_file_size(layout)
        layout.layer(1).add_fill(Rect(10, 10, 30, 30))
        one = measure_file_size(layout)
        layout.layer(1).add_fill(Rect(50, 50, 70, 70))
        two = measure_file_size(layout)
        assert one - base == BYTES_PER_BOUNDARY
        assert two - one == BYTES_PER_BOUNDARY

    def test_predict_fill_bytes(self):
        assert predict_fill_bytes(10) == 10 * BYTES_PER_BOUNDARY
        with pytest.raises(ValueError):
            predict_fill_bytes(-1)

    def test_file_size_mb(self):
        assert file_size_mb(1024 * 1024) == 1.0

    def test_write_returns_byte_count(self):
        buf = io.BytesIO()
        n = write_gdsii(sample_layout(), buf)
        assert n == len(buf.getvalue())


class TestReaderTolerance:
    def test_nonrectangular_boundary_decomposed(self):
        # Hand-craft an L-shaped boundary and confirm the reader
        # Gourley-Greens it into rectangles.
        from repro.gdsii.records import (
            DataType,
            RecordType,
            encode_ascii,
            encode_int2,
            encode_int4,
            pack_record,
        )

        loop = [0, 0, 10, 0, 10, 4, 4, 4, 4, 10, 0, 10, 0, 0]
        stream = (
            pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
            + pack_record(RecordType.BGNSTR, DataType.INT2, encode_int2([0] * 12))
            + pack_record(RecordType.STRNAME, DataType.ASCII, encode_ascii("T"))
            + pack_record(RecordType.BOUNDARY, DataType.NO_DATA)
            + pack_record(RecordType.LAYER, DataType.INT2, encode_int2([1]))
            + pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([0]))
            + pack_record(RecordType.XY, DataType.INT4, encode_int4(loop))
            + pack_record(RecordType.ENDEL, DataType.NO_DATA)
            + pack_record(RecordType.ENDSTR, DataType.NO_DATA)
            + pack_record(RecordType.ENDLIB, DataType.NO_DATA)
        )
        rects = shapes_by_key(stream)[1, 0]
        assert sum(r.area for r in rects) == 10 * 4 + 4 * 6

    def test_boundary_missing_xy_rejected(self):
        from repro.gdsii.records import (
            DataType,
            RecordType,
            encode_int2,
            pack_record,
        )

        stream = (
            pack_record(RecordType.BOUNDARY, DataType.NO_DATA)
            + pack_record(RecordType.LAYER, DataType.INT2, encode_int2([1]))
            + pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([0]))
            + pack_record(RecordType.ENDEL, DataType.NO_DATA)
            + pack_record(RecordType.ENDLIB, DataType.NO_DATA)
        )
        with pytest.raises(ValueError):
            shapes_by_key(stream)
