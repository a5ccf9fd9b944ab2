"""GDSII stream-format records.

GDSII is the contest's standard input and output format (paper §2.3);
the *file-size score* s_fs of Eqn. (3) is computed from the bytes of
the solution GDSII, so this reproduction implements the binary format
from scratch rather than approximating the size.

A GDSII file is a flat sequence of records::

    +--------+--------+----------+---------+
    | length (2B, BE) | rec type | datatype|  payload (length-4 bytes)
    +--------+--------+----------+---------+

where ``length`` includes the 4 header bytes.  Payload encodings used
here: 2-byte integers, 4-byte integers, ASCII (padded to even length),
and the 8-byte excess-64 base-16 floating-point format unique to GDSII.
Records are read back by :func:`repro.gdsii.stream.iter_stream_records`.

Every rectangle is written as one fixed 64-byte BOUNDARY element
(:data:`BOUNDARY_ROW`); the writer encodes and the reader matches whole
arrays of these rows through the field layout :data:`BOUNDARY_FIELDS`.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import List, Sequence

import numpy as np

__all__ = [
    "RecordType",
    "DataType",
    "pack_record",
    "encode_real8",
    "decode_real8",
    "encode_int2",
    "encode_int4",
    "decode_int2",
    "decode_int4",
    "encode_ascii",
    "decode_ascii",
    "BOUNDARY_FIELDS",
    "BOUNDARY_LOOP",
    "BOUNDARY_ROW",
]


class RecordType:
    """GDSII record type codes (the subset a fill flow needs)."""

    HEADER = 0x00
    BGNLIB = 0x01
    LIBNAME = 0x02
    UNITS = 0x03
    ENDLIB = 0x04
    BGNSTR = 0x05
    STRNAME = 0x06
    ENDSTR = 0x07
    BOUNDARY = 0x08
    PATH = 0x09
    SREF = 0x0A
    LAYER = 0x0D
    DATATYPE = 0x0E
    WIDTH = 0x0F
    XY = 0x10
    ENDEL = 0x11
    SNAME = 0x12


class DataType:
    """GDSII data type codes."""

    NO_DATA = 0x00
    BITARRAY = 0x01
    INT2 = 0x02
    INT4 = 0x03
    REAL4 = 0x04
    REAL8 = 0x05
    ASCII = 0x06


# ----------------------------------------------------------------------
# scalar encodings
# ----------------------------------------------------------------------
def encode_int2(values: Sequence[int]) -> bytes:
    return struct.pack(f">{len(values)}h", *values)


def decode_int2(payload: bytes) -> List[int]:
    count = len(payload) // 2
    return list(struct.unpack(f">{count}h", payload))


def encode_int4(values: Sequence[int]) -> bytes:
    return struct.pack(f">{len(values)}i", *values)


def decode_int4(payload: bytes) -> List[int]:
    count = len(payload) // 4
    return list(struct.unpack(f">{count}i", payload))


def encode_ascii(text: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) % 2:
        raw += b"\0"
    return raw


def decode_ascii(payload: bytes) -> str:
    return payload.rstrip(b"\0").decode("ascii")


def encode_real8(value: float) -> bytes:
    """Encode a float in GDSII 8-byte excess-64 base-16 format.

    Layout: 1 sign bit, 7 exponent bits (excess 64, radix 16), 56
    mantissa bits with the value ``(-1)^s * mantissa * 16^(exp-64)``
    where ``mantissa`` is a binary fraction in [1/16, 1).
    """
    if value == 0.0:  # repro: noqa[REP005] — exact zero maps to the all-zero GDSII real
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    # Normalise the mantissa into [1/16, 1).
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    if not (0 <= exponent <= 127):
        raise OverflowError("value out of range for GDSII real8")
    mantissa = int(value * (1 << 56))
    out = bytearray(8)
    out[0] = sign | exponent
    for i in range(7, 0, -1):
        out[i] = mantissa & 0xFF
        mantissa >>= 8
    return bytes(out)


def decode_real8(payload: bytes) -> float:
    """Decode a GDSII 8-byte real."""
    if len(payload) != 8:
        raise ValueError("real8 payload must be exactly 8 bytes")
    if payload == b"\x00" * 8:
        return 0.0
    sign = -1.0 if payload[0] & 0x80 else 1.0
    exponent = (payload[0] & 0x7F) - 64
    mantissa = 0
    for byte in payload[1:]:
        mantissa = (mantissa << 8) | byte
    return sign * (mantissa / float(1 << 56)) * (16.0 ** exponent)


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
def pack_record(rec_type: int, data_type: int, payload: bytes = b"") -> bytes:
    """Frame one record (2-byte length, type, datatype, payload)."""
    length = len(payload) + 4
    if length > 0xFFFF:
        raise ValueError("record payload too large for GDSII framing")
    return struct.pack(">HBB", length, rec_type, data_type) + payload


# ----------------------------------------------------------------------
# the rectangle element
# ----------------------------------------------------------------------
_BOUNDARY_RECORDS = (
    pack_record(RecordType.BOUNDARY, DataType.NO_DATA),
    pack_record(RecordType.LAYER, DataType.INT2, encode_int2([0])),
    pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([0])),
    pack_record(RecordType.XY, DataType.INT4, encode_int4([0] * 10)),
    pack_record(RecordType.ENDEL, DataType.NO_DATA),
)

#: one rectangle's BOUNDARY element with zero layer, datatype and XY:
#: BOUNDARY, LAYER, DATATYPE, a 5-point XY and ENDEL, 64 bytes in all
BOUNDARY_ROW = b"".join(_BOUNDARY_RECORDS)

_STARTS = list(accumulate(map(len, _BOUNDARY_RECORDS[:-1]), initial=0))

#: :data:`BOUNDARY_ROW` field by field: the five record headers
#: ``head0``..``head4`` as big-endian words, then the big-endian int16
#: layer and datatype and the ten int32 XY words of the payloads
BOUNDARY_FIELDS = np.dtype(
    {
        "names": ["head0", "head1", "head2", "head3", "head4", "layer", "datatype", "xy"],
        "formats": [">u4"] * 5 + [">i2", ">i2", (">i4", (10,))],
        "offsets": _STARTS + [_STARTS[1] + 4, _STARTS[2] + 4, _STARTS[3] + 4],
        "itemsize": len(BOUNDARY_ROW),
    }
)

#: the XY words of an ``(xl, yl, xh, yh)`` box row, by column: the
#: closed counter-clockwise loop of 5 points the writer emits
BOUNDARY_LOOP = [0, 1, 2, 1, 2, 3, 0, 3, 0, 1]
