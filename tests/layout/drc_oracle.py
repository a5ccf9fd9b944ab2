"""Scalar oracle of the fill DRC.

:func:`check_fills` checks each fill's width, area and size rules,
then asks a :class:`GridIndex` once per fill for its fill-fill and
fill-wire spacing neighbours.  :func:`repro.layout.check_fills`, which
finds the same pairs with one array join, must return these
violations element for element.
"""

from typing import List, Sequence

from repro.geometry import Rect
from repro.layout import DrcRules, DrcViolation

from ..geometry.grid_index import GridIndex


def check_fills(
    fills: Sequence[Rect],
    wires: Sequence[Rect],
    rules: DrcRules,
) -> List[DrcViolation]:
    """The scalar fill DRC: one index query per fill.

    Spacing is the Euclidean gap between closed boxes, ``e(i, j)`` of
    Table 1; overlapping same-layer shapes violate with measure 0.
    """
    violations: List[DrcViolation] = []
    for f in fills:
        if f.width < rules.min_width:
            violations.append(
                DrcViolation("min_width", f, measured=f.width, required=rules.min_width)
            )
        if f.height < rules.min_width:
            violations.append(
                DrcViolation("min_width", f, measured=f.height, required=rules.min_width)
            )
        if f.area < rules.min_area:
            violations.append(
                DrcViolation("min_area", f, measured=f.area, required=rules.min_area)
            )
        if f.width > rules.max_fill_width or f.height > rules.max_fill_height:
            violations.append(
                DrcViolation(
                    "max_size",
                    f,
                    measured=max(f.width, f.height),
                    required=max(rules.max_fill_width, rules.max_fill_height),
                )
            )

    cell = max(rules.min_spacing * 4, rules.max_fill_width, 64)
    index: GridIndex[int] = GridIndex(cell)
    for i, f in enumerate(fills):
        index.insert(f, i)
    reported = set()
    for i, f in enumerate(fills):
        for rect, j in index.query_within(f, rules.min_spacing):
            if j <= i:
                continue
            gap = f.euclidean_gap(rect)
            if gap < rules.min_spacing:
                key = (i, j)
                if key not in reported:
                    reported.add(key)
                    violations.append(
                        DrcViolation(
                            "min_spacing",
                            f,
                            other=rect,
                            measured=gap,
                            required=rules.min_spacing,
                        )
                    )
    if wires:
        wire_index: GridIndex[int] = GridIndex(cell)
        for j, w in enumerate(wires):
            wire_index.insert(w, j)
        for i, f in enumerate(fills):
            for rect, j in wire_index.query_within(f, rules.min_spacing):
                gap = f.euclidean_gap(rect)
                if gap < rules.min_spacing:
                    violations.append(
                        DrcViolation(
                            "min_spacing",
                            f,
                            other=rect,
                            measured=gap,
                            required=rules.min_spacing,
                        )
                    )
    return violations
