"""Unit and property-based tests for 1-D interval arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.interval import (
    complement,
    intersect,
    measure,
    normalize,
    subtract,
    union,
)


def brute_points(intervals, lo=-64, hi=64, scale=2):
    """Half-open sample-point model of an interval list (for oracles).

    Sampling at half-integer offsets avoids boundary ambiguity: point
    p covers [p, p+1/scale).
    """
    covered = set()
    for a, b in intervals:
        p = a * scale
        while p < b * scale:
            covered.add(p)
            p += 1
    return covered


interval_lists = st.lists(
    st.tuples(
        st.integers(min_value=-32, max_value=32),
        st.integers(min_value=-32, max_value=32),
    ).map(lambda t: (min(t), max(t))),
    max_size=8,
)


class TestNormalize:
    def test_empty(self):
        assert normalize([]) == []

    def test_drops_degenerate(self):
        assert normalize([(3, 3), (5, 5)]) == []

    def test_merges_overlap(self):
        assert normalize([(0, 5), (3, 8)]) == [(0, 8)]

    def test_merges_abutting(self):
        assert normalize([(0, 5), (5, 8)]) == [(0, 8)]

    def test_keeps_gaps(self):
        assert normalize([(0, 2), (5, 8)]) == [(0, 2), (5, 8)]

    def test_sorts(self):
        assert normalize([(5, 8), (0, 2)]) == [(0, 2), (5, 8)]

    def test_nested(self):
        assert normalize([(0, 10), (2, 4), (6, 12)]) == [(0, 12)]


class TestOperations:
    def test_measure(self):
        assert measure([(0, 3), (10, 14)]) == 7

    def test_intersect_basic(self):
        assert intersect([(0, 10)], [(5, 15)]) == [(5, 10)]

    def test_intersect_disjoint(self):
        assert intersect([(0, 5)], [(5, 10)]) == []

    def test_intersect_multi(self):
        a = [(0, 4), (6, 10)]
        b = [(2, 8)]
        assert intersect(a, b) == [(2, 4), (6, 8)]

    def test_subtract_hole(self):
        assert subtract([(0, 10)], [(3, 7)]) == [(0, 3), (7, 10)]

    def test_subtract_everything(self):
        assert subtract([(2, 5)], [(0, 10)]) == []

    def test_subtract_nothing(self):
        assert subtract([(0, 5)], [(7, 9)]) == [(0, 5)]

    def test_subtract_multiple_holes(self):
        assert subtract([(0, 20)], [(2, 4), (6, 8), (15, 25)]) == [
            (0, 2),
            (4, 6),
            (8, 15),
        ]

    def test_union(self):
        assert union([(0, 2)], [(1, 5), (7, 9)]) == [(0, 5), (7, 9)]

    def test_complement(self):
        assert complement([(2, 4)], 0, 10) == [(0, 2), (4, 10)]

    def test_complement_empty_input(self):
        assert complement([], 0, 5) == [(0, 5)]


class TestPropertyBased:
    @given(interval_lists, interval_lists)
    def test_intersect_matches_pointwise(self, a, b):
        na, nb = normalize(a), normalize(b)
        result = brute_points(intersect(na, nb))
        expected = brute_points(na) & brute_points(nb)
        assert result == expected

    @given(interval_lists, interval_lists)
    def test_subtract_matches_pointwise(self, a, b):
        na, nb = normalize(a), normalize(b)
        result = brute_points(subtract(na, nb))
        expected = brute_points(na) - brute_points(nb)
        assert result == expected

    @given(interval_lists, interval_lists)
    def test_union_matches_pointwise(self, a, b):
        na, nb = normalize(a), normalize(b)
        result = brute_points(union(na, nb))
        expected = brute_points(na) | brute_points(nb)
        assert result == expected

    @given(interval_lists)
    def test_normalize_idempotent(self, a):
        once = normalize(a)
        assert normalize(once) == once

    @given(interval_lists)
    def test_normalized_is_disjoint_sorted(self, a):
        n = normalize(a)
        for (lo1, hi1), (lo2, hi2) in zip(n, n[1:]):
            assert hi1 < lo2

    @given(interval_lists, interval_lists)
    def test_measure_inclusion_exclusion(self, a, b):
        na, nb = normalize(a), normalize(b)
        assert measure(union(na, nb)) == (
            measure(na) + measure(nb) - measure(intersect(na, nb))
        )

    @given(interval_lists, interval_lists)
    def test_subtract_then_intersect_empty(self, a, b):
        na, nb = normalize(a), normalize(b)
        assert intersect(subtract(na, nb), nb) == []
