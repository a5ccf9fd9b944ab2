"""Tests for GDSII record framing and scalar encodings."""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gdsii.records import (
    DataType,
    RecordType,
    decode_ascii,
    decode_int2,
    decode_int4,
    decode_real8,
    encode_ascii,
    encode_int2,
    encode_int4,
    encode_real8,
    pack_record,
)
from repro.gdsii.stream import iter_stream_records


class TestIntegers:
    def test_int2_roundtrip(self):
        values = [0, 1, -1, 32767, -32768]
        assert decode_int2(encode_int2(values)) == values

    def test_int2_big_endian(self):
        assert encode_int2([0x1234]) == b"\x12\x34"

    def test_int4_roundtrip(self):
        values = [0, 2**31 - 1, -(2**31), 42]
        assert decode_int4(encode_int4(values)) == values

    def test_int4_big_endian(self):
        assert encode_int4([0x12345678]) == b"\x12\x34\x56\x78"


class TestAscii:
    def test_roundtrip(self):
        assert decode_ascii(encode_ascii("TOP")) == "TOP"

    def test_padded_to_even(self):
        raw = encode_ascii("ABC")
        assert len(raw) % 2 == 0
        assert decode_ascii(raw) == "ABC"

    def test_even_length_unpadded(self):
        assert encode_ascii("AB") == b"AB"


class TestReal8:
    """The GDSII excess-64 base-16 float format."""

    def test_zero(self):
        assert encode_real8(0.0) == b"\x00" * 8
        assert decode_real8(b"\x00" * 8) == 0.0

    def test_one(self):
        # 1.0 = 0.0625 * 16^1: exponent 65, mantissa 0x10000000000000.
        raw = encode_real8(1.0)
        assert raw[0] == 0x41
        assert decode_real8(raw) == 1.0

    def test_known_unit_values(self):
        # Classic GDSII UNITS: 1e-3 user unit, 1e-9 meters per dbu.
        for value in (1e-3, 1e-9, 0.5, 2.0, 1e-6):
            assert decode_real8(encode_real8(value)) == pytest.approx(
                value, rel=1e-14
            )

    def test_negative(self):
        raw = encode_real8(-1.0)
        assert raw[0] & 0x80
        assert decode_real8(raw) == -1.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode_real8(b"\x00" * 4)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            encode_real8(16.0**70)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_roundtrip_relative_error(self, value):
        assert decode_real8(encode_real8(value)) == pytest.approx(
            value, rel=1e-13
        )

    @given(st.floats(min_value=-1e9, max_value=-1e-9))
    def test_roundtrip_negative(self, value):
        assert decode_real8(encode_real8(value)) == pytest.approx(
            value, rel=1e-13
        )


class TestFraming:
    def test_pack_record_header(self):
        rec = pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
        length, rtype, dtype = struct.unpack(">HBB", rec[:4])
        assert length == 6
        assert rtype == RecordType.HEADER
        assert dtype == DataType.INT2

    def test_iter_records_roundtrip(self):
        stream = (
            pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
            + pack_record(RecordType.LIBNAME, DataType.ASCII, encode_ascii("LIB"))
            + pack_record(RecordType.ENDLIB, DataType.NO_DATA)
        )
        records = list(iter_stream_records(io.BytesIO(stream)))
        assert [(r[0], r[1]) for r in records] == [
            (0, RecordType.HEADER),
            (6, RecordType.LIBNAME),
            (14, RecordType.ENDLIB),
        ]
        assert records[1][3] == encode_ascii("LIB")

    def test_stops_at_endlib(self):
        stream = (
            pack_record(RecordType.ENDLIB, DataType.NO_DATA) + b"\xff\xff\xff"
        )
        assert len(list(iter_stream_records(io.BytesIO(stream)))) == 1

    def test_null_padding_tolerated(self):
        stream = pack_record(RecordType.ENDLIB, DataType.NO_DATA) + b"\x00" * 64
        assert len(list(iter_stream_records(io.BytesIO(stream)))) == 1

    def test_truncated_stream_rejected(self):
        stream = pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
        with pytest.raises(ValueError, match="at byte 0"):
            list(iter_stream_records(io.BytesIO(stream[:-2])))

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError):
            pack_record(RecordType.XY, DataType.INT4, b"\x00" * 70000)
