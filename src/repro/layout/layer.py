"""A single routing layer: signal wires plus inserted dummy fills.

Layers are numbered from 1 upward, as in Alg. 1 of the paper, where the
odd/even distinction drives candidate generation order.  Wires are the
immutable input geometry; fills are added by the insertion engine and
kept separate so overlay and density can be attributed correctly
(overlay counts fill-vs-anything, per §2.1).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..geometry import Rect, RectSet, RectilinearPolygon, polygon_to_rects

__all__ = ["Layer"]


class Layer:
    """Shape container for one metal layer."""

    def __init__(self, number: int, name: Optional[str] = None):
        if number < 1:
            raise ValueError("layer numbers start at 1 (Alg. 1 convention)")
        self.number = number
        self.name = name if name is not None else f"metal{number}"
        self._wires: List[Rect] = []
        self._fills: List[Rect] = []

    # ------------------------------------------------------------------
    @property
    def wires(self) -> List[Rect]:
        """Signal wire rectangles (a copy)."""
        return list(self._wires)

    @property
    def fills(self) -> List[Rect]:
        """Dummy fill rectangles inserted so far (a copy)."""
        return list(self._fills)

    @property
    def shapes(self) -> List[Rect]:
        """Wires and fills together — the full metal coverage."""
        return self._wires + self._fills

    @property
    def num_wires(self) -> int:
        return len(self._wires)

    @property
    def num_fills(self) -> int:
        return len(self._fills)

    @property
    def is_odd(self) -> bool:
        """Alg. 1 processes odd-numbered layers first."""
        return self.number % 2 == 1

    # ------------------------------------------------------------------
    def add_wire(self, rect: Rect) -> None:
        """Add a signal wire rectangle."""
        if rect.is_degenerate:
            raise ValueError(f"degenerate wire rectangle {rect}")
        self._wires.append(rect)

    def add_wires(self, rects: Iterable[Rect]) -> None:
        for r in rects:
            self.add_wire(r)

    def add_wire_polygon(self, polygon: RectilinearPolygon) -> List[Rect]:
        """Decompose a wire polygon (Gourley–Green) and add the pieces.

        Returns the rectangles actually added — the "convert polygons to
        rectangles" step of Fig. 3.
        """
        rects = polygon_to_rects(polygon)
        self.add_wires(rects)
        return rects

    def add_fill(self, rect: Rect) -> None:
        """Add one dummy fill rectangle."""
        if rect.is_degenerate:
            raise ValueError(f"degenerate fill rectangle {rect}")
        self._fills.append(rect)

    def add_fills(self, rects: Iterable[Rect]) -> None:
        for r in rects:
            self.add_fill(r)

    def clear_fills(self) -> None:
        """Remove all fills (re-running the engine on a fresh slate)."""
        self._fills.clear()

    def filter_wires(self, predicate: Callable[[Rect], bool]) -> int:
        """Keep only wires where ``predicate(rect)`` is true.

        Returns the number of wires removed.  Used by the benchmark
        generator to carve keep-out regions out of a wire population.
        """
        before = len(self._wires)
        self._wires = [w for w in self._wires if predicate(w)]
        return before - len(self._wires)

    # ------------------------------------------------------------------
    def wire_area_in(self, window: Rect) -> int:
        """Exact wire area inside ``window`` (overlaps de-duplicated)."""
        clipped = [
            c for w in self._wires if (c := w.intersection(window)) is not None
        ]
        return RectSet(clipped).area

    def fill_area_in(self, window: Rect) -> int:
        """Exact fill area inside ``window``.

        Fills are kept pairwise disjoint by construction, so this is a
        plain clipped sum.
        """
        total = 0
        for f in self._fills:
            total += f.intersection_area(window)
        return total

    def __repr__(self) -> str:
        return (
            f"Layer({self.number}, {self.name!r}, "
            f"{len(self._wires)} wires, {len(self._fills)} fills)"
        )
