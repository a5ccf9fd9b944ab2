"""Cheap runtime assertion helpers for the fill engine's invariants.

The static pass (:mod:`repro.check`) enforces the invariants it can see
in the source; the helpers here guard the same invariants at the
runtime boundaries where data enters the flow — engine entry, density
analysis, sizing.  They are deliberately O(1) or O(windows) so they can
stay enabled in production runs:

* :func:`check_rect` — rectangle well-formedness on the integer dbu
  grid (``xl <= xh``, ``yl <= yh``, integral coordinates), and
  :func:`check_boxes`/:func:`checked_boxes`, the same check over an
  ``(n, 4)`` box array or a rect list in one array pass,
* :func:`check_density` — window density maps stay within ``[0, 1]``
  (paper §2.2: densities are area ratios),
* :func:`check_drc_params` — the rule deck is positive and
  self-consistent (Table 1: ``sm``, ``wm``, ``am``).

Violations raise :class:`ContractViolation` naming the offending value
— failing at the boundary instead of corrupting a score three stages
later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence, Union

import numpy as np

from .geometry.raster import IntArray, typed_boxes

if TYPE_CHECKING:  # circular-import-free type-only imports
    from .geometry.rect import Rect
    from .layout.drc import DrcRules

__all__ = [
    "ContractViolation",
    "check_rect",
    "check_boxes",
    "checked_boxes",
    "check_density",
    "check_drc_params",
    "DENSITY_EPS",
]

#: slack for float round-off when densities are assembled from ratios
DENSITY_EPS = 1e-9


class ContractViolation(ValueError):
    """A runtime invariant of the fill flow was violated."""


def check_rect(rect: "Rect", *, name: str = "rect") -> "Rect":
    """Validate integer-dbu well-formedness of a rectangle.

    ``Rect.__post_init__`` already rejects inverted boxes; this guard
    additionally rejects non-integral coordinates, which a frozen
    dataclass cannot (a ``Rect(0.5, 0, 1.5, 1)`` constructs happily and
    then breaks area bookkeeping and the sizing ILP's integrality).
    """
    for attr in ("xl", "yl", "xh", "yh"):
        value = getattr(rect, attr)
        if not isinstance(value, (int, np.integer)):
            raise ContractViolation(
                f"{name}.{attr} = {value!r} is not an integer dbu coordinate"
            )
    if rect.xl > rect.xh or rect.yl > rect.yh:
        raise ContractViolation(
            f"{name} is malformed: ({rect.xl},{rect.yl},{rect.xh},{rect.yh}) "
            "requires xl <= xh and yl <= yh"
        )
    return rect


def check_boxes(box: np.ndarray[Any, np.dtype[Any]], *, name: str = "rect") -> IntArray:
    """:func:`check_rect` of every row of an ``(n, 4)`` box array.

    A dtype that does not cast to int64 safely (floats, or an object
    array) holding a value that is not an int fails with
    :func:`check_rect`'s message, naming the first coordinate with a
    fractional part (else the first that is not an int); ints are
    converted, and one beyond int64 fails.  An inverted row fails
    likewise.  Returns the rows as int64.
    """
    if not np.can_cast(box.dtype, np.int64):
        rows = box.tolist()
        stray = [
            (attr, value)
            for row in rows
            for attr, value in zip(("xl", "yl", "xh", "yh"), row)
            if not isinstance(value, (int, np.integer))
        ]
        if stray:
            fractional = (s for s in stray if not (isinstance(s[1], float) and s[1].is_integer()))
            attr, value = next(fractional, stray[0])
            raise ContractViolation(f"{name}.{attr} = {value!r} is not an integer dbu coordinate")
        try:
            box = np.array(rows, dtype=np.int64).reshape(box.shape)
        except OverflowError:
            raise ContractViolation(f"{name} has a coordinate beyond int64") from None
    inverted = (box[:, 0] > box[:, 2]) | (box[:, 1] > box[:, 3])
    if inverted.any():
        xl, yl, xh, yh = box[int(np.argmax(inverted))].tolist()
        raise ContractViolation(
            f"{name} is malformed: ({xl},{yl},{xh},{yh}) "
            "requires xl <= xh and yl <= yh"
        )
    return box.astype(np.int64, copy=False)


def checked_boxes(rects: Sequence["Rect"], *, name: str = "rect") -> IntArray:
    """The rects as one int64 box array, each checked as by
    :func:`check_rect` (the first bad rect raises its message)."""
    box = typed_boxes(rects)
    if box.dtype != np.int64:
        for rect in rects:
            check_rect(rect, name=name)
    return check_boxes(box, name=name)


def check_density(
    value: Union[float, np.ndarray], *, name: str = "density"
) -> Union[float, np.ndarray]:
    """Validate that a density (scalar or window map) lies in ``[0, 1]``.

    Densities are ratios of covered area to window area (Eqn. (1)); a
    value outside ``[0, 1]`` (beyond float round-off) means the area
    bookkeeping double-counted shapes or divided by the wrong window
    area.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.size and (
        not np.isfinite(arr).all()
        or float(arr.min()) < -DENSITY_EPS
        or float(arr.max()) > 1.0 + DENSITY_EPS
    ):
        finite = arr[np.isfinite(arr)]
        lo = float(finite.min()) if finite.size else float("nan")
        hi = float(finite.max()) if finite.size else float("nan")
        raise ContractViolation(
            f"{name} outside [0, 1]: range [{lo:.6g}, {hi:.6g}]"
            + ("" if np.isfinite(arr).all() else " with non-finite entries")
        )
    return value


def check_drc_params(rules: "DrcRules", *, name: str = "rules") -> "DrcRules":
    """Validate positivity and consistency of the DRC rule deck.

    Mirrors ``DrcRules.__post_init__`` for decks that arrive through
    deserialisation paths that bypass the constructor, and adds the
    integer-dbu requirement.
    """
    params = {
        "min_spacing": rules.min_spacing,
        "min_width": rules.min_width,
        "min_area": rules.min_area,
        "max_fill_width": rules.max_fill_width,
        "max_fill_height": rules.max_fill_height,
    }
    for param, value in params.items():
        if not isinstance(value, (int, np.integer)):
            raise ContractViolation(
                f"{name}.{param} = {value!r} is not an integer dbu quantity"
            )
        if value <= 0:
            raise ContractViolation(f"{name}.{param} = {value!r} must be positive")
    if rules.max_fill_width < rules.min_width:
        raise ContractViolation(
            f"{name}: max_fill_width {rules.max_fill_width} < "
            f"min_width {rules.min_width}"
        )
    if rules.max_fill_height < rules.min_width:
        raise ContractViolation(
            f"{name}: max_fill_height {rules.max_fill_height} < "
            f"min_width {rules.min_width}"
        )
    return rules
