"""One-dimensional integer interval arithmetic.

The scanline boolean engine (:mod:`repro.geometry.boolean`) reduces every
two-dimensional rectilinear boolean operation to operations on sets of
closed integer intervals within a horizontal slab.  This module provides
that substrate: a normalised, sorted, pairwise-disjoint list of
``(lo, hi)`` intervals with union / intersection / subtraction /
complement and total-measure queries.

Intervals are treated as continuous segments ``[lo, hi]`` with integer
endpoints; a degenerate interval (``lo == hi``) has zero measure and is
dropped during normalisation.  Abutting intervals (``a.hi == b.lo``) are
merged, which matches how two wire rectangles sharing an edge form one
covered region for density purposes.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "normalize",
    "union",
    "intersect",
    "subtract",
    "complement",
    "measure",
]

Interval = Tuple[int, int]


def normalize(intervals: Iterable[Interval]) -> List[Interval]:
    """Sort, drop empty, and merge overlapping/abutting intervals."""
    items = sorted((lo, hi) for lo, hi in intervals if lo < hi)
    out: List[Interval] = []
    for lo, hi in items:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def measure(intervals: Sequence[Interval]) -> int:
    """Total length of a *normalised* interval list."""
    return sum(hi - lo for lo, hi in intervals)


def union(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Union of two normalised interval lists."""
    return normalize(list(a) + list(b))


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two normalised interval lists (linear merge)."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Normalised ``a`` minus normalised ``b`` (linear merge)."""
    out: List[Interval] = []
    j = 0
    for lo, hi in a:
        cur = lo
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            blo, bhi = b[k]
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
            k += 1
        if cur < hi:
            out.append((cur, hi))
    return out


def complement(a: Sequence[Interval], lo: int, hi: int) -> List[Interval]:
    """The part of ``[lo, hi]`` not covered by normalised ``a``."""
    return subtract([(lo, hi)], a)
