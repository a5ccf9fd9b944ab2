"""A single routing layer: signal wires plus inserted dummy fills.

Layers are numbered from 1 upward, as in Alg. 1 of the paper, where the
odd/even distinction drives candidate generation order.  Wires are the
immutable input geometry; fills are added by the insertion engine and
kept separate so overlay and density can be attributed correctly
(overlay counts fill-vs-anything, per §2.1).

Wires and fills are each held as one int64 box array, the form every
array stage reads (:attr:`Layer.wire_boxes`, :attr:`Layer.fill_boxes`);
:attr:`Layer.wires` and :attr:`Layer.fills` build rects on demand.  Each
array is the leading rows of a growable buffer, so adding shapes one at
a time costs amortized constant time, and rows once added never change:
dropping or clearing fills makes a new array, so a box array a stage
holds stays valid.  Every mutator checks its shapes as
:func:`~repro.contracts.check_rect` does.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..contracts import check_boxes, check_rect, checked_boxes
from ..geometry import (BoolArray, IntArray, Rect, RectilinearPolygon, polygon_to_rects,
                        rects_of, union_area)

__all__ = ["Layer"]

#: what the shape mutators take: rects, or an ``(n, 4)`` box array
Shapes = Union[Iterable[Rect], np.ndarray[Any, np.dtype[Any]]]


def _no_shapes() -> IntArray:
    """A fresh read-only ``(0, 4)`` box array, backed by no buffer."""
    box = np.zeros((0, 4), dtype=np.int64)
    box.flags.writeable = False
    return box


def _appended(rows: IntArray, box: IntArray) -> IntArray:
    """``rows`` followed by ``box``, as a read-only view.

    ``rows`` is a layer's box array.  When it is the leading rows of a
    buffer with enough spare rows, ``box`` is written into them;
    otherwise both go into a new buffer of at least twice the rows.
    Rows already handed out are never written.
    """
    n, k = len(rows), len(box)
    if not k:
        return rows
    store = rows.base  # the buffer, when the rows are its leading rows
    if (
        isinstance(store, np.ndarray)
        and store.flags.writeable
        and store.shape[1:] == (4,)
        and len(store) >= n + k
    ):
        store[n : n + k] = box
    else:
        store = np.empty((max(n + k, 2 * n), 4), dtype=np.int64)
        store[:n] = rows
        store[n : n + k] = box
    out = store[: n + k]
    out.flags.writeable = False
    return out


def _row(rect: Rect) -> IntArray:
    return np.array([(rect.xl, rect.yl, rect.xh, rect.yh)], dtype=np.int64)


class Layer:
    """Shape container for one metal layer."""

    def __init__(self, number: int, name: Optional[str] = None):
        if number < 1:
            raise ValueError("layer numbers start at 1 (Alg. 1 convention)")
        self.number = number
        self.name = name if name is not None else f"metal{number}"
        self._wires: IntArray = _no_shapes()
        self._fills: IntArray = _no_shapes()

    # ------------------------------------------------------------------
    @property
    def wires(self) -> List[Rect]:
        """Signal wire rectangles, built from :attr:`wire_boxes`."""
        return rects_of(self._wires)

    @property
    def wire_boxes(self) -> IntArray:
        """The wires as a read-only ``(n, 4)`` int64 box array, in order.

        The same array until a wire is added or filtered out.
        """
        box = self._wires
        box.flags.writeable = False  # an unpickled layer's arrays come back writeable
        return box

    @property
    def fills(self) -> List[Rect]:
        """Dummy fill rectangles inserted so far, built from :attr:`fill_boxes`."""
        return rects_of(self._fills)

    @property
    def fill_boxes(self) -> IntArray:
        """The fills as a read-only ``(n, 4)`` int64 box array, in order.

        The same array until a fill is added, dropped or cleared.
        """
        box = self._fills
        box.flags.writeable = False
        return box

    @property
    def shapes(self) -> List[Rect]:
        """Wires and fills together — the full metal coverage."""
        return self.wires + self.fills

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
    def _checked(self, shapes: Shapes, what: str) -> IntArray:
        """``shapes`` as an int64 box array, every row checked."""
        name = f"{what} on layer {self.number}"
        if isinstance(shapes, np.ndarray):
            box = check_boxes(shapes, name=name)
        else:
            box = checked_boxes(list(shapes), name=name)
        flat = (box[:, 0] == box[:, 2]) | (box[:, 1] == box[:, 3])
        if flat.any():
            raise ValueError(f"degenerate {what} rectangle {rects_of(box[flat][:1])[0]}")
        return box

    def add_wire(self, rect: Rect) -> None:
        """Add a signal wire rectangle."""
        check_rect(rect, name=f"wire on layer {self.number}")
        if rect.is_degenerate:
            raise ValueError(f"degenerate wire rectangle {rect}")
        self._wires = _appended(self._wires, _row(rect))

    def add_wires(self, shapes: Shapes) -> None:
        """Append wires, given as rects or as an ``(n, 4)`` box array."""
        self._wires = _appended(self._wires, self._checked(shapes, "wire"))

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
        check_rect(rect, name=f"fill on layer {self.number}")
        if rect.is_degenerate:
            raise ValueError(f"degenerate fill rectangle {rect}")
        self._fills = _appended(self._fills, _row(rect))

    def add_fills(self, shapes: Shapes) -> None:
        """Append fills, given as rects or as an ``(n, 4)`` box array."""
        self._fills = _appended(self._fills, self._checked(shapes, "fill"))

    def clear_fills(self) -> None:
        """Remove all fills (re-running the engine on a fresh slate)."""
        self._fills = _no_shapes()

    def drop_fills(self, mask: Union[Sequence[bool], BoolArray]) -> None:
        """Remove the fills whose entry in ``mask`` is true, keeping the
        rest in order; ``mask`` has one entry per fill."""
        if len(mask) != len(self._fills):
            raise ValueError(
                f"drop mask has {len(mask)} entries, layer {self.number} has "
                f"{len(self._fills)} fills"
            )
        fills = self._fills[~np.asarray(mask, dtype=bool)]
        fills.flags.writeable = False
        self._fills = fills

    def filter_wires(self, predicate: Callable[[Rect], bool]) -> int:
        """Keep only wires where ``predicate(rect)`` is true.

        Returns the number of wires removed.  Used by the benchmark
        generator to carve keep-out regions out of a wire population.
        """
        keep = np.array([predicate(w) for w in self.wires], dtype=bool)
        before = len(self._wires)
        wires = self._wires[keep]
        wires.flags.writeable = False
        self._wires = wires
        return before - len(wires)

    # ------------------------------------------------------------------
    def wire_area_in(self, window: Rect) -> int:
        """Exact wire area inside ``window`` (overlaps de-duplicated)."""
        box = self._wires
        clipped = np.column_stack(
            (
                np.maximum(box[:, 0], window.xl),
                np.maximum(box[:, 1], window.yl),
                np.minimum(box[:, 2], window.xh),
                np.minimum(box[:, 3], window.yh),
            )
        )
        inside = clipped[(clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])]
        return union_area(rects_of(inside))

    def __repr__(self) -> str:
        return (
            f"Layer({self.number}, {self.name!r}, "
            f"{self.num_wires} wires, {len(self._fills)} fills)"
        )
