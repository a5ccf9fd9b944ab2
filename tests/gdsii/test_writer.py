"""The array BOUNDARY encoder against the scalar one it replaced."""

import io
import random
import struct

import numpy as np
import pytest

from repro.bench.generator import LayoutSpec, generate_layout
from repro.gdsii import GdsiiStreamWriter, measure_file_size, write_gdsii
from repro.gdsii.writer import CHUNK_RECTS, encode_boundaries
from repro.geometry import Rect, boxes

from .writer_oracle import boundary_bytes, group_bytes

INT4_MAX = (1 << 31) - 1
INT4_MIN = -(1 << 31)


def _rects(seed, count, lo=-5000, hi=5000):
    """Seeded rects with zero-width and zero-height ones mixed in."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.randint(lo, hi), rng.randint(lo, hi)
        w, h = rng.choice([0, rng.randint(1, 900)]), rng.choice([0, rng.randint(1, 900)])
        out.append(Rect(x, y, x + w, y + h))
    return out


def _written(groups):
    buf = io.BytesIO()
    writer = GdsiiStreamWriter(buf)
    for layer, datatype, rects in groups:
        writer.rectangles(layer, datatype, rects)
    assert writer.close() == len(buf.getvalue())
    return buf.getvalue()


#: the library header and ENDSTR/ENDLIB trailer of every written stream
HEADER, TRAILER = _written([])[:-8], _written([])[-8:]

EDGE_GROUPS = {
    "extremes": (
        1,
        0,
        [
            Rect(INT4_MIN, INT4_MIN, INT4_MAX, INT4_MAX),
            Rect(-INT4_MAX, -1, 0, INT4_MAX),
            Rect(INT4_MAX, INT4_MAX, INT4_MAX, INT4_MAX),
        ],
    ),
    "negative": (2, 1, _rects(1, 50, lo=-10**9, hi=-1)),
    "zero-area": (3, 0, [Rect(5, 5, 5, 90), Rect(-7, 3, 40, 3), Rect(0, 0, 0, 0)]),
    "layer-32767": (32767, 32767, _rects(2, 20)),
    "negative-layer": (-32768, -1, _rects(3, 5)),
    "empty": (4, 1, []),
}


@pytest.mark.parametrize("name", sorted(EDGE_GROUPS))
def test_encoder_matches_oracle(name):
    layer, datatype, rects = EDGE_GROUPS[name]
    assert encode_boundaries(layer, datatype, boxes(rects, len(rects))) == group_bytes(
        layer, datatype, rects
    )


@pytest.mark.parametrize("seed", range(5))
def test_seeded_groups_match_oracle(seed):
    rng = random.Random(seed)
    groups = [
        (rng.randint(0, 300), rng.randint(0, 3), _rects(seed * 31 + k, rng.randint(0, 200)))
        for k in range(6)
    ]
    expected = HEADER + b"".join(group_bytes(*group) for group in groups) + TRAILER
    assert _written(groups) == expected


@pytest.mark.parametrize("count", [CHUNK_RECTS - 1, CHUNK_RECTS, CHUNK_RECTS + 1, 2 * CHUNK_RECTS + 3])
def test_groups_across_the_chunk_edge(count):
    rects = _rects(count, count)
    assert _written([(7, 1, rects)]) == HEADER + group_bytes(7, 1, rects) + TRAILER


def test_box_chunks_match_rectangles():
    rects = _rects(9, 300)
    buf = io.BytesIO()
    writer = GdsiiStreamWriter(buf)
    writer.box_chunks(5, 1, (boxes(rects[k : k + 64], len(rects[k : k + 64])) for k in range(0, 300, 64)))
    writer.close()
    assert buf.getvalue() == _written([(5, 1, rects)])


@pytest.mark.parametrize(
    "layer, datatype, rect",
    [
        (1, 0, Rect(0, 0, 1 << 31, 5)),
        (1, 0, Rect(INT4_MIN - 1, 0, 5, 5)),
        (1, 0, Rect(0, 0, 5, 1 << 70)),
        (32768, 0, Rect(0, 0, 5, 5)),
        (1, -32769, Rect(0, 0, 5, 5)),
    ],
)
def test_out_of_range_raises_struct_error_on_both_sides(layer, datatype, rect):
    with pytest.raises(struct.error):
        boundary_bytes(layer, datatype, rect)
    with pytest.raises(struct.error):
        _written([(layer, datatype, [Rect(0, 0, 1, 1), rect])])


@pytest.mark.parametrize(
    "rect", [Rect(10.5, 10, 100.7, 50), Rect(10, 10, 100, 50.0), Rect(0, 0, 5, 1 << 70)]
)
def test_non_int32_coordinate_raises_struct_error_like_oracle(rect):
    with pytest.raises(struct.error) as want:
        boundary_bytes(1, 0, rect)
    for write in (
        lambda w: w.rectangles(1, 0, [Rect(0, 0, 1, 1), rect]),
        lambda w: w.boundary(1, 0, rect),
    ):
        writer = GdsiiStreamWriter(io.BytesIO())
        with pytest.raises(struct.error) as got:
            write(writer)
        assert str(got.value).split()[0] == str(want.value).split()[0]


def test_writing_after_close_raises():
    writer = GdsiiStreamWriter(io.BytesIO())
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.rectangles(1, 0, [Rect(0, 0, 10, 10)])
    with pytest.raises(ValueError, match="closed"):
        writer.box_chunks(1, 0, [np.zeros((1, 4), np.int64)])


@pytest.mark.parametrize("seed", range(3))
def test_write_gdsii_returns_measured_size(seed):
    layout = generate_layout(LayoutSpec(name="w", die_size=800, seed=seed, num_cell_rects=30))
    layout.layer(1).add_fills(r for r in _rects(seed, 40, lo=0, hi=700) if not r.is_degenerate)
    buf = io.BytesIO()
    assert write_gdsii(layout, buf) == measure_file_size(layout) == len(buf.getvalue())
