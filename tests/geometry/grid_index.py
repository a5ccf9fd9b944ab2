"""Uniform-grid spatial index for rectangles: the scalar neighbour query.

The program asks "which boxes are near this one?" with int64 box
arrays (:func:`repro.geometry.touching`, :func:`repro.geometry.near_pairs`).
This index answers the same question one query at a time by bucketing
rectangles on a fixed grid; the scalar oracles under ``tests/`` query
it, and the array forms are tested against it row for row: its hits
come back in insertion order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterator, List, Tuple, TypeVar

from repro.geometry import Rect

T = TypeVar("T")


class GridIndex(Generic[T]):
    """Buckets rectangles into fixed-size grid cells for range queries.

    Items are arbitrary payloads stored alongside their bounding
    rectangle.  Query results are deduplicated and order-stable (items
    come back in insertion order).
    """

    def __init__(self, cell_size: int):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._cell = cell_size
        self._buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._items: List[Tuple[Rect, T]] = []

    def __len__(self) -> int:
        return len(self._items)

    def _cells(self, rect: Rect) -> Iterator[Tuple[int, int]]:
        cx0 = rect.xl // self._cell
        cx1 = rect.xh // self._cell
        cy0 = rect.yl // self._cell
        cy1 = rect.yh // self._cell
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield (cx, cy)

    def insert(self, rect: Rect, item: T) -> int:
        """Store ``item`` under ``rect``; returns the item's index."""
        idx = len(self._items)
        self._items.append((rect, item))
        for cell in self._cells(rect):
            self._buckets[cell].append(idx)
        return idx

    def query(self, region: Rect) -> List[Tuple[Rect, T]]:
        """All items whose rectangle *touches* ``region`` (closed boxes).

        Results come back in insertion order, which keeps downstream
        candidate selection deterministic.
        """
        seen = set()
        hit_ids: List[int] = []
        for cell in self._cells(region):
            for idx in self._buckets.get(cell, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                if self._items[idx][0].touches(region):
                    hit_ids.append(idx)
        hit_ids.sort()
        return [self._items[idx] for idx in hit_ids]

    def query_overlapping(self, region: Rect) -> List[Tuple[Rect, T]]:
        """All items with positive-area overlap with ``region``."""
        return [(r, it) for r, it in self.query(region) if r.overlaps(region)]

    def query_within(self, region: Rect, margin: int) -> List[Tuple[Rect, T]]:
        """All items within ``margin`` of ``region`` (closed distance).

        This is the neighbour query behind spacing-constraint extraction:
        fill pairs closer than the minimum spacing ``sm`` get a
        differential constraint (Eqn. (13)).
        """
        grown = region.expanded(margin)
        return self.query(grown)
