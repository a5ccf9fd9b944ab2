"""Tests for the box-array neighbour queries against the scalar grid index."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect, boxes, near_pairs, touching

from .grid_index import GridIndex

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


def _within_ids(a, b, d):
    """``GridIndex.query_within(a[i], d)`` for every ``i``, as ``(i, j)``."""
    index = GridIndex(16)
    for k, rect in enumerate(b):
        index.insert(rect, k)
    return [(i, k) for i, rect in enumerate(a) for _, k in index.query_within(rect, d)]


def _pairs(a, b, d):
    i, j = near_pairs(boxes(a, len(a)), boxes(b, len(b)), d)
    assert i.dtype == j.dtype == np.int64
    return list(zip(i.tolist(), j.tolist()))


def _mixed_rects(rng, n):
    """Small, zero-width and die-long boxes around the origin, with
    some drawn twice."""
    rects = []
    for _ in range(n):
        x, y = rng.randrange(-300, 300), rng.randrange(-300, 300)
        kind = rng.random()
        if kind < 0.1:  # die-long, spans many cells
            rects.append(Rect(-400, y, 400, y + rng.randrange(0, 6)))
        elif kind < 0.2:
            rects.append(Rect(x, -400, x + rng.randrange(0, 6), 400))
        elif kind < 0.3:  # zero width or height
            rects.append(Rect(x, y, x, y + rng.randrange(0, 50)))
        else:
            rects.append(Rect(x, y, x + rng.randrange(0, 80), y + rng.randrange(0, 80)))
    return rects + rng.choices(rects, k=rng.randint(0, 4)) if rects else rects


class TestNearPairs:
    """``near_pairs(a, b, d)`` is ``GridIndex.query_within(a[i], d)`` over
    ``b`` for every ``i``: the same rows, sorted by ``(i, j)``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_query_within(self, seed):
        rng = random.Random(seed)
        a = _mixed_rects(rng, rng.randint(0, 60))
        b = a if seed % 4 == 0 else _mixed_rects(rng, rng.randint(0, 60))
        for d in (0, 1, 5, 10, 37):
            assert _pairs(a, b, d) == _within_ids(a, b, d), d

    @pytest.mark.parametrize("d", [0, 3, 10])
    def test_gap_of_exactly_d_counts(self, d):
        # every neighbour sits exactly d away: on each edge, at each
        # corner; one more dbu and none of them is near
        box = Rect(100, 100, 140, 120)
        ring = [
            Rect(140 + d, 100, 160 + d, 120),  # right edge
            Rect(70 - d, 105, 100 - d, 115),  # left edge
            Rect(100, 120 + d, 140, 130 + d),  # top edge
            Rect(110, 90 - d, 120, 100 - d),  # bottom edge
            Rect(140 + d, 120 + d, 150 + d, 130 + d),  # high corner
            Rect(90 - d, 90 - d, 100 - d, 100 - d),  # low corner
            Rect(140 + d, 80 - d, 150 + d, 100 - d),  # low-right corner
            Rect(80 - d, 120 + d, 100 - d, 140 + d),  # high-left corner
        ]
        away = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
        far = [Rect(r.xl + x, r.yl + y, r.xh + x, r.yh + y) for r, (x, y) in zip(ring, away)]
        want = [(0, k) for k in range(len(ring))]
        assert _pairs([box], ring, d) == want == _within_ids([box], ring, d)
        assert _pairs([box], far, d) == [] == _within_ids([box], far, d)

    def test_negative_coordinates(self):
        a = [Rect(-50, -50, -40, -40), Rect(-3, -3, 0, 0)]
        b = [Rect(-38, -45, -30, -41), Rect(-1000, -2, -4, -1), Rect(2, 2, 9, 9)]
        assert _pairs(a, b, 2) == [(0, 0), (1, 1), (1, 2)] == _within_ids(a, b, 2)

    def test_duplicates_and_same_set(self):
        a = [Rect(0, 0, 10, 10), Rect(0, 0, 10, 10), Rect(30, 0, 40, 10), Rect(0, 0, 0, 10)]
        got = _pairs(a, a, 5)
        assert got == _within_ids(a, a, 5)
        assert (0, 1) in got and (1, 0) in got and (0, 0) in got
        assert (0, 2) not in got

    def test_many_cell_box(self):
        # one die-long wire against a row of small boxes along it
        a = [Rect(x, 20, x + 10, 30) for x in range(0, 5000, 50)]
        b = [Rect(-10, 0, 5010, 12), Rect(2500, 100, 2510, 110)]
        assert _pairs(a, b, 8) == [(i, 0) for i in range(len(a))] == _within_ids(a, b, 8)

    def test_empty_sides(self):
        some = [Rect(0, 0, 5, 5)]
        for a, b in (([], some), (some, []), ([], [])):
            assert _pairs(a, b, 3) == [] == _within_ids(a, b, 3)

    @given(
        st.lists(small_rects, max_size=15),
        st.lists(small_rects, max_size=15),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_query_within_property(self, a, b, d):
        assert _pairs(a, b, d) == _within_ids(a, b, d)
