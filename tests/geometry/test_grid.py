"""Tests for the uniform-grid spatial index and the box-array query."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import GridIndex, Rect, boxes, touching

small_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)


class TestBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(0)

    def test_len(self):
        idx = GridIndex(16)
        assert len(idx) == 0
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert len(idx) == 1

    def test_query_hit(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query(Rect(3, 3, 8, 8)) == [(Rect(0, 0, 5, 5), "a")]

    def test_query_miss(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query(Rect(50, 50, 60, 60)) == []

    def test_query_touching_edge_counts(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert len(idx.query(Rect(5, 0, 9, 5))) == 1

    def test_query_overlapping_excludes_edge_touch(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query_overlapping(Rect(5, 0, 9, 5)) == []

    def test_no_duplicates_for_large_item(self):
        idx = GridIndex(4)
        idx.insert(Rect(0, 0, 40, 40), "big")  # spans many cells
        assert len(idx.query(Rect(0, 0, 40, 40))) == 1

    def test_insertion_order_preserved(self):
        idx = GridIndex(16)
        for k in range(5):
            idx.insert(Rect(k, 0, k + 2, 2), k)
        hits = idx.query(Rect(0, 0, 10, 2))
        assert [item for _, item in hits] == [0, 1, 2, 3, 4]

    def test_extend_and_items(self):
        idx = GridIndex(16)
        pairs = [(Rect(0, 0, 1, 1), "a"), (Rect(5, 5, 6, 6), "b")]
        idx.extend(pairs)
        assert idx.items() == pairs

    def test_query_within_margin(self):
        idx = GridIndex(16)
        idx.insert(Rect(20, 0, 25, 5), "far")
        assert idx.query_within(Rect(0, 0, 5, 5), 10) == []
        assert len(idx.query_within(Rect(0, 0, 5, 5), 15)) == 1

    def test_negative_coordinates(self):
        idx = GridIndex(16)
        idx.insert(Rect(-30, -30, -20, -20), "neg")
        assert len(idx.query(Rect(-25, -25, -22, -22))) == 1


class TestPropertyBased:
    @given(st.lists(small_rects, max_size=20), small_rects)
    def test_query_matches_brute_force(self, rects, probe):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        expected = [(r, k) for k, r in enumerate(rects) if r.touches(probe)]
        assert idx.query(probe) == expected

    @given(st.lists(small_rects, max_size=20), small_rects)
    def test_query_overlapping_matches_brute_force(self, rects, probe):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        expected = [(r, k) for k, r in enumerate(rects) if r.overlaps(probe)]
        assert idx.query_overlapping(probe) == expected

    @given(
        st.lists(small_rects, max_size=15),
        small_rects,
        st.integers(min_value=0, max_value=20),
    )
    def test_query_within_matches_brute_force(self, rects, probe, margin):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        grown = probe.expanded(margin)
        expected = [(r, k) for k, r in enumerate(rects) if r.touches(grown)]
        assert idx.query_within(probe, margin) == expected


def _index_ids(rects, frame):
    """The ids ``GridIndex.query`` returns for rects inserted in order."""
    index = GridIndex(16)
    for k, rect in enumerate(rects):
        index.insert(rect, k)
    return [k for _, k in index.query(frame)]


def _seeded_rects(seed):
    """Rects with zero-width ones among them, some drawn twice."""
    rng = random.Random(seed)
    rects = []
    for _ in range(rng.randint(5, 40)):
        x, y = rng.randrange(-80, 80), rng.randrange(-80, 80)
        rects.append(Rect(x, y, x + rng.randrange(0, 40), y + rng.randrange(0, 40)))
    return rects + rng.choices(rects, k=rng.randint(1, 5))


def _frames(rect):
    """Frames meeting ``rect`` on one edge, at one corner, or clear of it."""
    xl, yl, xh, yh = rect.xl, rect.yl, rect.xh, rect.yh
    return {
        "self": rect,
        "left edge": Rect(xl - 7, yl, xl, yh),
        "right edge": Rect(xh, yl, xh + 7, yh),
        "bottom edge": Rect(xl, yl - 7, xh, yl),
        "top edge": Rect(xl, yh, xh, yh + 7),
        "low corner": Rect(xl - 5, yl - 5, xl, yl),
        "high corner": Rect(xh, yh, xh + 5, yh + 5),
        "clear right": Rect(xh + 1, yl, xh + 9, yh),
        "clear above": Rect(xl, yh + 1, xh, yh + 9),
        "far": Rect(500, 500, 520, 520),  # clear of every seeded rect
    }


class TestTouching:
    """``touching`` over ``boxes(rects)`` is ``GridIndex.query``: the same
    ids in the same order, with shared edges and corners counted."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_index_query(self, seed):
        rects = _seeded_rects(seed)
        box = boxes(rects, len(rects))
        for probe in rects:
            for kind, frame in _frames(probe).items():
                want = _index_ids(rects, frame)
                got = touching(box, frame)
                assert got.tolist() == want, (kind, frame)
                if kind == "far":
                    assert want == [], frame
                elif not kind.startswith("clear"):
                    assert rects.index(probe) in want, (kind, frame)

    def test_empty_set(self):
        got = touching(boxes([], 0), Rect(0, 0, 10, 10))
        assert got.tolist() == _index_ids([], Rect(0, 0, 10, 10)) == []
        assert got.dtype.kind == "i"

    @given(st.lists(small_rects, max_size=20), small_rects)
    def test_matches_index_query_property(self, rects, probe):
        got = touching(boxes(rects, len(rects)), probe)
        assert np.array_equal(got, np.array(_index_ids(rects, probe), dtype=got.dtype))
