"""GDSII binary stream I/O (the contest's exchange format, §2.3)."""

from ..layout import DIE_LAYER, FILL_DATATYPE, WIRE_DATATYPE
from .filesize import (
    BYTES_PER_BOUNDARY,
    HEADER_OVERHEAD_BYTES,
    file_size_mb,
    measure_file_size,
    predict_fill_bytes,
)
from .reader import layout_from_gdsii
from .records import DataType, RecordType, decode_real8, encode_real8
from .stream import (
    GdsiiElement,
    GdsiiStreamReader,
    element_points,
    element_rects,
    iter_stream_records,
    loop_as_rect,
    path_to_loops,
)
from .writer import GdsiiStreamWriter, gdsii_bytes, write_gdsii

__all__ = [
    "BYTES_PER_BOUNDARY",
    "HEADER_OVERHEAD_BYTES",
    "file_size_mb",
    "measure_file_size",
    "predict_fill_bytes",
    "layout_from_gdsii",
    "DataType",
    "RecordType",
    "decode_real8",
    "encode_real8",
    "GdsiiElement",
    "GdsiiStreamReader",
    "element_points",
    "element_rects",
    "iter_stream_records",
    "loop_as_rect",
    "path_to_loops",
    "DIE_LAYER",
    "FILL_DATATYPE",
    "WIRE_DATATYPE",
    "GdsiiStreamWriter",
    "gdsii_bytes",
    "write_gdsii",
]
