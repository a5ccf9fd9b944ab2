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

from typing import Iterable, Iterator, List, Sequence

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
    "clip_rects",
    "canonicalize",
    "RectSet",
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


def clip_rects(rects: Iterable[Rect], clip: Rect) -> List[Rect]:
    """Clip every rectangle to ``clip``, dropping empty results."""
    out = []
    for r in rects:
        c = r.intersection(clip)
        if c is not None:
            out.append(c)
    return out


def canonicalize(rects: Sequence[Rect]) -> List[Rect]:
    """Disjoint, vertically merged canonical form of an arbitrary set.

    Two rectangle sets cover the same region iff their canonical forms
    are equal, which the property-based tests rely on.
    """
    return rect_set_union(list(rects), [])


class RectSet:
    """An immutable region of the plane stored as disjoint rectangles.

    A convenience wrapper used wherever a *region* (rather than a list of
    individual shapes) is the natural abstraction: fill regions, wire
    coverage, windows.  All operations return new sets.
    """

    __slots__ = ("_rects",)

    def __init__(self, rects: Iterable[Rect] = (), *, _canonical: bool = False):
        rect_list = list(rects)
        self._rects = rect_list if _canonical else canonicalize(rect_list)

    @property
    def rects(self) -> List[Rect]:
        """The canonical disjoint rectangle list (a copy)."""
        return list(self._rects)

    @property
    def area(self) -> int:
        """Covered area (rectangles are disjoint, so a plain sum)."""
        return sum(r.area for r in self._rects)

    @property
    def is_empty(self) -> bool:
        return not self._rects

    def union(self, other: "RectSet") -> "RectSet":
        return RectSet(
            rect_set_union(self._rects, other._rects), _canonical=True
        )

    def intersect(self, other: "RectSet") -> "RectSet":
        return RectSet(
            rect_set_intersect(self._rects, other._rects), _canonical=True
        )

    def subtract(self, other: "RectSet") -> "RectSet":
        return RectSet(
            rect_set_subtract(self._rects, other._rects), _canonical=True
        )

    def clip(self, window: Rect) -> "RectSet":
        return RectSet(
            rect_set_intersect(self._rects, [window]), _canonical=True
        )

    def intersection_area(self, other: "RectSet") -> int:
        return intersection_area(self._rects, other._rects)

    def contains_point(self, x: int, y: int) -> bool:
        return any(r.contains_point(x, y) for r in self._rects)

    def bloated(self, margin: int) -> "RectSet":
        """Region grown by ``margin`` on all sides (min-spacing bloat)."""
        if margin == 0:
            return self
        return RectSet(r.expanded(margin) for r in self._rects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectSet):
            return NotImplemented
        return self._rects == other._rects

    def __len__(self) -> int:
        return len(self._rects)

    def __iter__(self) -> Iterator[Rect]:
        return iter(self._rects)

    def __repr__(self) -> str:
        return f"RectSet({len(self._rects)} rects, area={self.area})"
