"""Rectilinear boolean operations on rectangle sets.

Density analysis and overlay evaluation (paper §2.1–§2.2) need exact
area arithmetic on unions of possibly-overlapping rectangles: the wire
coverage of a window, the free fill region (window minus bloated wires),
and the pairwise overlap of fill sets on adjacent layers.

The engine here is a classic *slab decomposition* scanline: collect all
distinct y coordinates, and within each horizontal slab reduce the
problem to one-dimensional interval arithmetic
(:mod:`repro.geometry.interval`).  The output of every set operation is
a list of disjoint rectangles, canonicalised by merging vertically
adjacent rectangles that share an x-span, so repeated operations do not
fragment geometry.

Complexity is O(S · R log R) for S slabs over R rectangles — entirely
adequate at the scaled benchmark sizes this reproduction targets (see
DESIGN.md §3), and exact over the integer grid.
"""

from __future__ import annotations

from typing import List, Sequence

from .interval import Interval, intersect as iv_intersect
from .interval import measure as iv_measure
from .interval import normalize as iv_normalize
from .interval import subtract as iv_subtract
from .rect import Rect

__all__ = [
    "union_area",
    "intersection_area",
    "rect_set_union",
    "rect_set_intersect",
    "rect_set_subtract",
    "canonicalize",
]


def _slab_edges(rect_lists: Sequence[Sequence[Rect]]) -> List[int]:
    """Sorted distinct y coordinates over all rectangles in all lists."""
    ys = set()
    for rects in rect_lists:
        for r in rects:
            ys.add(r.yl)
            ys.add(r.yh)
    return sorted(ys)


def _slab_intervals(rects: Sequence[Rect], ylo: int, yhi: int) -> List[Interval]:
    """Normalised x-intervals of rectangles crossing slab ``[ylo, yhi]``."""
    return iv_normalize(
        (r.xl, r.xh) for r in rects if r.yl <= ylo and r.yh >= yhi
    )


def _sweep(
    a: Sequence[Rect],
    b: Sequence[Rect],
    combine,
) -> List[Rect]:
    """Run ``combine(intervals_a, intervals_b)`` in every slab, then merge."""
    edges = _slab_edges([a, b])
    out: List[Rect] = []
    for ylo, yhi in zip(edges, edges[1:]):
        if ylo >= yhi:
            continue
        ia = _slab_intervals(a, ylo, yhi)
        ib = _slab_intervals(b, ylo, yhi)
        for xl, xh in combine(ia, ib):
            out.append(Rect(xl, ylo, xh, yhi))
    return _merge_vertical(out)


def _merge_vertical(rects: List[Rect]) -> List[Rect]:
    """Merge vertically stacked rectangles with identical x-spans.

    Assumes the input rectangles are pairwise disjoint (slab output),
    which the scanline guarantees.
    """
    by_span = {}
    for r in sorted(rects, key=lambda r: (r.xl, r.xh, r.yl)):
        key = (r.xl, r.xh)
        prev = by_span.get(key)
        if prev and prev[-1].yh == r.yl:
            prev[-1] = Rect(r.xl, prev[-1].yl, r.xh, r.yh)
        else:
            by_span.setdefault(key, []).append(r)
    merged = [r for group in by_span.values() for r in group]
    merged.sort()
    return merged


# ----------------------------------------------------------------------
# area queries
# ----------------------------------------------------------------------
def union_area(rects: Sequence[Rect]) -> int:
    """Exact area of the union of (possibly overlapping) rectangles."""
    edges = _slab_edges([rects])
    total = 0
    for ylo, yhi in zip(edges, edges[1:]):
        if ylo >= yhi:
            continue
        total += iv_measure(_slab_intervals(rects, ylo, yhi)) * (yhi - ylo)
    return total


def intersection_area(a: Sequence[Rect], b: Sequence[Rect]) -> int:
    """Exact area of ``union(a) ∩ union(b)``.

    This is precisely the *overlay* measure of paper §2.1: the overlap
    between the covered region of one layer and the covered region of
    its neighbour.
    """
    edges = _slab_edges([a, b])
    total = 0
    for ylo, yhi in zip(edges, edges[1:]):
        if ylo >= yhi:
            continue
        ia = _slab_intervals(a, ylo, yhi)
        ib = _slab_intervals(b, ylo, yhi)
        total += iv_measure(iv_intersect(ia, ib)) * (yhi - ylo)
    return total


# ----------------------------------------------------------------------
# constructive set operations
# ----------------------------------------------------------------------
def rect_set_union(a: Sequence[Rect], b: Sequence[Rect]) -> List[Rect]:
    """Disjoint rectangles covering ``union(a) ∪ union(b)``."""
    from .interval import union as iv_union

    return _sweep(a, b, iv_union)


def rect_set_intersect(a: Sequence[Rect], b: Sequence[Rect]) -> List[Rect]:
    """Disjoint rectangles covering ``union(a) ∩ union(b)``, canonical.

    Alg. 1 line 10's ``intersect(fr(l), fr(l+1))`` (Region 3 of
    Figs. 4/5) does not need the canonical form:
    :func:`repro.core.candidates._region3` keeps the pairwise
    intersection pieces as they are.
    """
    return _sweep(a, b, iv_intersect)


def rect_set_subtract(a: Sequence[Rect], b: Sequence[Rect]) -> List[Rect]:
    """Disjoint rectangles covering ``union(a) \\ union(b)``.

    The fill-region extraction (window minus bloated wires) is built on
    this operation.
    """
    return _sweep(a, b, iv_subtract)


def canonicalize(rects: Sequence[Rect]) -> List[Rect]:
    """Disjoint, vertically merged canonical form of an arbitrary set.

    Two rectangle sets cover the same region iff their canonical forms
    are equal, which the property-based tests rely on.
    """
    return rect_set_union(list(rects), [])
