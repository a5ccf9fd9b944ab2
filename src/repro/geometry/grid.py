"""Uniform-grid spatial index for rectangles.

Spacing-rule checks (Eqn. (9g)) and the other per-shape neighbour
searches — the fill DRC, the ECO rip-up, the litho hotspot scan and the
coupling-LP baseline — ask "which shapes are near this box?" once per
shape, over thousands of rectangles.  A uniform bucket grid is the
right tool at this scale: the shapes are small relative to the window
and near-uniformly distributed.  The fill engine's stages query wires
once per window column instead, with one closed-box mask over the
layer's int64 box array (:func:`repro.geometry.touching`); the scalar
oracles in ``tests/core`` query this index, whose hits are the same
rows in the same (insertion) order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Tuple, TypeVar

from .rect import Rect

__all__ = ["GridIndex"]

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

    @property
    def cell_size(self) -> int:
        return self._cell

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

    def extend(self, pairs: Iterable[Tuple[Rect, T]]) -> None:
        for rect, item in pairs:
            self.insert(rect, item)

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

    def items(self) -> List[Tuple[Rect, T]]:
        """All stored (rect, item) pairs in insertion order."""
        return list(self._items)
