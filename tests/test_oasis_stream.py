"""OASIS additions: incremental writer, grid/vertical repetitions,
cursor bound errors on malformed streams."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import LayoutSpec, generate_layout
from repro.geometry import Rect
from repro.oasis import (
    MAGIC,
    OasisStreamWriter,
    oasis_bytes,
    read_oasis,
)


def _roundtrip(rects, layer=1, datatype=1):
    buf = io.BytesIO()
    writer = OasisStreamWriter(buf)
    writer.rectangles(layer, datatype, rects)
    writer.close()
    cell = read_oasis(buf.getvalue())
    return buf.getvalue(), cell.rects.get((layer, datatype), [])


class TestStreamWriterParity:
    def test_matches_oasis_bytes(self):
        spec = LayoutSpec(name="o", die_size=800, seed=11, num_cell_rects=50)
        layout = generate_layout(spec)
        expected = oasis_bytes(layout)

        buf = io.BytesIO()
        writer = OasisStreamWriter(buf)
        writer.rectangles(0, 0, [layout.die])
        for layer in layout.layers:
            writer.rectangles(layer.number, 0, layer.wires)
            writer.rectangles(layer.number, 1, layer.fills)
        writer.close()
        assert buf.getvalue() == expected

    def test_group_bytes_are_order_independent(self):
        rects = [Rect(100 * i, 100 * j, 100 * i + 40, 100 * j + 40)
                 for i in range(3) for j in range(3)]
        forward, _ = _roundtrip(rects)
        backward, _ = _roundtrip(list(reversed(rects)))
        assert forward == backward


class TestRepetitions:
    def test_vertical_column_roundtrips(self):
        rects = [Rect(10, 100 * k, 50, 100 * k + 40) for k in range(6)]
        data, back = _roundtrip(rects)
        assert sorted(back) == sorted(rects)
        # One anchor + one repetition beats six explicit rectangles.
        single, _ = _roundtrip(rects[:1])
        assert len(data) < len(single) + 5 * 8

    def test_grid_roundtrips(self):
        rects = [
            Rect(100 * a, 80 * b, 100 * a + 30, 80 * b + 30)
            for b in range(4)
            for a in range(5)
        ]
        data, back = _roundtrip(rects)
        assert sorted(back) == sorted(rects)

    def test_grid_beats_rows(self):
        grid_rects = [
            Rect(60 * a, 60 * b, 60 * a + 20, 60 * b + 20)
            for b in range(10)
            for a in range(10)
        ]
        data, back = _roundtrip(grid_rects)
        assert sorted(back) == sorted(grid_rects)
        # 100 uniform tiles collapse to a single grid record: the file
        # is barely bigger than an empty one (END padding dominates).
        empty = io.BytesIO()
        OasisStreamWriter(empty).close()
        assert len(data) - len(empty.getvalue()) < 40

    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        px=st.integers(30, 200),
        py=st.integers(30, 200),
        w=st.integers(1, 25),
        h=st.integers(1, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_grid_property(self, nx, ny, px, py, w, h):
        rects = [
            Rect(px * a, py * b, px * a + w, py * b + h)
            for b in range(ny)
            for a in range(nx)
        ]
        _, back = _roundtrip(rects)
        assert sorted(back) == sorted(rects)

    @given(
        rects=st.lists(
            st.tuples(
                st.integers(0, 2000),
                st.integers(0, 2000),
                st.integers(1, 80),
                st.integers(1, 80),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_multiset_roundtrip(self, rects):
        as_rects = [Rect(x, y, x + w, y + h) for x, y, w, h in rects]
        _, back = _roundtrip(as_rects)
        assert sorted(back) == sorted(as_rects)


class TestMalformedStreams:
    def test_truncated_stream_names_offset(self):
        buf = io.BytesIO()
        writer = OasisStreamWriter(buf)
        writer.rectangles(1, 0, [Rect(0, 0, 50, 50)])
        writer.close()
        data = buf.getvalue()
        with pytest.raises(ValueError, match="at byte"):
            read_oasis(data[: len(data) - 260])

    def test_missing_end_record_names_offset(self):
        # a cut stream must not load as a partial layout
        data = oasis_bytes(generate_layout(LayoutSpec(name="o", die_size=800, seed=11)))
        end = len(data) - 256
        with pytest.raises(ValueError, match=f"truncated OASIS stream at byte {end}$"):
            read_oasis(data[:end])
        with pytest.raises(ValueError, match=f"truncated OASIS END record at byte {end}$"):
            read_oasis(data[:-10])

    def test_truncated_string_names_offset(self):
        # START record whose cell-name string claims more bytes than exist.
        data = MAGIC + bytes([14, 50])
        with pytest.raises(ValueError, match="truncated OASIS string"):
            read_oasis(data)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_oasis(b"not oasis at all")
