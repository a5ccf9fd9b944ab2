"""Unit and property-based tests for rectangle-set boolean operations."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Rect,
    canonicalize,
    intersection_area,
    rect_set_intersect,
    rect_set_subtract,
    rect_set_union,
    union_area,
)


def brute_cells(rects, bound=24):
    """Unit-cell occupancy model of a rectangle set (oracle)."""
    cells = set()
    for r in rects:
        for x in range(max(r.xl, -bound), min(r.xh, bound)):
            for y in range(max(r.yl, -bound), min(r.yh, bound)):
                cells.add((x, y))
    return cells


small_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
rect_lists = st.lists(small_rects, max_size=6)


class TestUnionArea:
    def test_empty(self):
        assert union_area([]) == 0

    def test_single(self):
        assert union_area([Rect(0, 0, 4, 5)]) == 20

    def test_disjoint(self):
        assert union_area([Rect(0, 0, 2, 2), Rect(5, 5, 7, 7)]) == 8

    def test_overlapping_not_double_counted(self):
        assert union_area([Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)]) == 28

    def test_identical_rects(self):
        r = Rect(0, 0, 5, 5)
        assert union_area([r, r, r]) == 25

    def test_contained(self):
        assert union_area([Rect(0, 0, 10, 10), Rect(2, 2, 4, 4)]) == 100


class TestIntersectionArea:
    def test_disjoint_sets(self):
        assert intersection_area([Rect(0, 0, 2, 2)], [Rect(5, 5, 7, 7)]) == 0

    def test_overlay_example(self):
        # Two "layers": overlapping coverage must count once per region.
        lower = [Rect(0, 0, 10, 4), Rect(0, 0, 4, 10)]  # L-shape
        upper = [Rect(2, 2, 12, 6)]
        # L-shape ∩ band: x 2..10 y 2..4 (area 16) plus x 2..4 y 4..6 (4)
        assert intersection_area(lower, upper) == 20

    def test_empty_operands(self):
        assert intersection_area([], [Rect(0, 0, 5, 5)]) == 0
        assert intersection_area([Rect(0, 0, 5, 5)], []) == 0

    def test_self_intersection_is_union_area(self):
        rects = [Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)]
        assert intersection_area(rects, rects) == union_area(rects)


class TestSetOperations:
    def test_subtract_hole(self):
        result = rect_set_subtract([Rect(0, 0, 10, 10)], [Rect(3, 3, 7, 7)])
        assert union_area(result) == 84
        for r in result:
            assert not r.overlaps(Rect(3, 3, 7, 7))

    def test_intersect_basic(self):
        result = rect_set_intersect([Rect(0, 0, 10, 10)], [Rect(5, 5, 15, 15)])
        assert result == [Rect(5, 5, 10, 10)]

    def test_union_merges_abutting(self):
        result = rect_set_union([Rect(0, 0, 5, 10)], [Rect(5, 0, 10, 10)])
        assert result == [Rect(0, 0, 10, 10)]

    def test_union_vertical_merge(self):
        result = rect_set_union([Rect(0, 0, 10, 5)], [Rect(0, 5, 10, 10)])
        assert result == [Rect(0, 0, 10, 10)]

    def test_output_is_disjoint(self):
        result = rect_set_union(
            [Rect(0, 0, 6, 6), Rect(4, 4, 10, 10)], [Rect(2, 2, 8, 8)]
        )
        for i, a in enumerate(result):
            for b in result[i + 1 :]:
                assert not a.overlaps(b)

    def test_canonicalize_equivalence(self):
        a = [Rect(0, 0, 10, 5), Rect(0, 5, 10, 10)]
        b = [Rect(0, 0, 5, 10), Rect(5, 0, 10, 10)]
        assert canonicalize(a) == canonicalize(b)


class TestPropertyBased:
    @given(rect_lists, rect_lists)
    def test_union_matches_cells(self, a, b):
        assert brute_cells(rect_set_union(a, b)) == brute_cells(a) | brute_cells(b)

    @given(rect_lists, rect_lists)
    def test_intersect_matches_cells(self, a, b):
        assert brute_cells(rect_set_intersect(a, b)) == (
            brute_cells(a) & brute_cells(b)
        )

    @given(rect_lists, rect_lists)
    def test_subtract_matches_cells(self, a, b):
        assert brute_cells(rect_set_subtract(a, b)) == (
            brute_cells(a) - brute_cells(b)
        )

    @given(rect_lists)
    def test_union_area_matches_cells(self, a):
        assert union_area(a) == len(brute_cells(a))

    @given(rect_lists, rect_lists)
    def test_intersection_area_matches_cells(self, a, b):
        assert intersection_area(a, b) == len(brute_cells(a) & brute_cells(b))

    @given(rect_lists)
    def test_canonical_output_disjoint(self, a):
        result = canonicalize(a)
        for i, r in enumerate(result):
            for q in result[i + 1 :]:
                assert not r.overlaps(q)

    @given(rect_lists)
    def test_canonicalize_idempotent(self, a):
        once = canonicalize(a)
        assert canonicalize(once) == once

    @given(rect_lists, rect_lists)
    def test_demorgan_on_areas(self, a, b):
        union = rect_set_union(a, b)
        inter = rect_set_intersect(a, b)
        assert union_area(union) + union_area(inter) == union_area(
            canonicalize(a)
        ) + union_area(canonicalize(b))
