"""Tests for the OASIS-subset writer/reader."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdsii import gdsii_bytes
from repro.geometry import Rect
from repro.layout import Layout
from repro.oasis import (
    MAGIC,
    layout_from_oasis,
    oasis_bytes,
    read_oasis,
    write_sint,
    write_uint,
    _Cursor,
)


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40])
    def test_uint_roundtrip(self, value):
        out = bytearray()
        write_uint(out, value)
        assert _Cursor(bytes(out)).uint() == value

    def test_uint_small_is_one_byte(self):
        out = bytearray()
        write_uint(out, 100)
        assert len(out) == 1

    def test_uint_negative_rejected(self):
        with pytest.raises(ValueError):
            write_uint(bytearray(), -1)

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 1000, -123456])
    def test_sint_roundtrip(self, value):
        out = bytearray()
        write_sint(out, value)
        assert _Cursor(bytes(out)).sint() == value

    @given(st.integers(min_value=0, max_value=2**50))
    @settings(max_examples=50)
    def test_uint_roundtrip_property(self, value):
        out = bytearray()
        write_uint(out, value)
        assert _Cursor(bytes(out)).uint() == value

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=50)
    def test_sint_roundtrip_property(self, value):
        out = bytearray()
        write_sint(out, value)
        assert _Cursor(bytes(out)).sint() == value


def sample_layout():
    layout = Layout(Rect(0, 0, 2000, 2000), num_layers=2, name="oas")
    layout.layer(1).add_wire(Rect(0, 0, 120, 40))
    layout.layer(1).add_wire(Rect(0, 100, 350, 130))
    layout.layer(2).add_wire(Rect(500, 0, 540, 700))
    # A regular fill grid (the case OASIS compresses).
    for i in range(10):
        for j in range(4):
            layout.layer(1).add_fill(
                Rect(600 + i * 110, 600 + j * 110, 700 + i * 110, 700 + j * 110)
            )
    layout.layer(2).add_fill(Rect(30, 1500, 90, 1590))
    return layout


class TestRoundTrip:
    def test_magic(self):
        assert oasis_bytes(sample_layout()).startswith(MAGIC)

    def test_layout_roundtrip(self):
        layout = sample_layout()
        back = layout_from_oasis(oasis_bytes(layout))
        assert back.die == layout.die
        for n in layout.layer_numbers:
            assert sorted(back.layer(n).wires) == sorted(layout.layer(n).wires)
            assert sorted(back.layer(n).fills) == sorted(layout.layer(n).fills)

    def test_cell_metadata(self):
        cell = read_oasis(oasis_bytes(sample_layout()))
        assert cell.name == "TOP"
        assert cell.unit == 1000

    def test_fill_only_stream(self):
        # a layout without wires reads back without wires
        layout = sample_layout()
        fills_only = Layout(layout.die, layout.num_layers)
        for n in layout.layer_numbers:
            fills_only.layer(n).add_fills(layout.layer(n).fills)
        back = layout_from_oasis(oasis_bytes(fills_only))
        assert back.num_wires == 0
        assert back.num_fills == layout.num_fills

    def test_deterministic(self):
        assert oasis_bytes(sample_layout()) == oasis_bytes(sample_layout())

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_oasis(b"GARBAGE" * 10)

    def test_empty_layout(self):
        layout = Layout(Rect(0, 0, 100, 100), num_layers=1)
        back = layout_from_oasis(oasis_bytes(layout))
        assert back.die == layout.die


class TestCompression:
    def test_repetitions_beat_gdsii_on_fill_grids(self):
        layout = sample_layout()
        oasis_size = len(oasis_bytes(layout))
        gdsii_size = len(gdsii_bytes(layout))
        # 40-cell fill grid: OASIS collapses rows to repetitions.
        assert oasis_size < gdsii_size / 3

    def test_grid_collapses_to_rows(self):
        layout = Layout(Rect(0, 0, 3000, 3000), num_layers=1)
        for i in range(20):
            layout.layer(1).add_fill(
                Rect(i * 120, 500, i * 120 + 100, 600)
            )
        single_row = len(oasis_bytes(layout))
        layout2 = Layout(Rect(0, 0, 3000, 3000), num_layers=1)
        layout2.layer(1).add_fill(Rect(0, 500, 100, 600))
        one_fill = len(oasis_bytes(layout2))
        # 20 fills in a row cost only a few bytes more than one fill.
        assert single_row - one_fill < 8

    def test_irregular_fills_still_roundtrip(self):
        layout = Layout(Rect(0, 0, 1000, 1000), num_layers=1)
        import random

        rng = random.Random(3)
        for _ in range(30):
            x, y = rng.randrange(0, 900), rng.randrange(0, 900)
            w, h = rng.randrange(10, 90), rng.randrange(10, 90)
            layout.layer(1).add_fill(Rect(x, y, x + w, y + h))
        back = layout_from_oasis(oasis_bytes(layout))
        assert sorted(back.layer(1).fills) == sorted(layout.layer(1).fills)


class TestPropertyBased:
    rects = st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(min_value=0, max_value=900),
        st.integers(min_value=0, max_value=900),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
    )

    @given(st.lists(rects, max_size=12), st.lists(rects, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_roundtrip(self, wires, fills):
        layout = Layout(Rect(0, 0, 1000, 1000), num_layers=1)
        layout.layer(1).add_wires(wires)
        layout.layer(1).add_fills(fills)
        back = layout_from_oasis(oasis_bytes(layout))
        assert sorted(back.layer(1).wires) == sorted(wires)
        assert sorted(back.layer(1).fills) == sorted(fills)
