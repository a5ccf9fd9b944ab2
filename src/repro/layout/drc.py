"""Design-rule deck and checker for dummy fills.

The sizing problem (paper Eqn. (9)) is constrained by three DRC rules,
named as in Table 1:

* ``sm`` — minimum spacing between any two shapes on a layer,
* ``wm`` — minimum width (both dimensions) of a fill,
* ``am`` — minimum area of a fill.

The checker here validates a fill solution against those rules — both
fill-to-fill and fill-to-wire spacing — and is used by the integration
tests to certify that the engine's output is DRC-clean, the property the
paper's "fix spacing rule violations" step (§3.3.1) guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..geometry import GridIndex, Rect

__all__ = ["DrcRules", "DrcViolation", "REQUEST_RULE_DEFAULTS", "check_fills"]

#: The rule deck of a request that names none, by request key: the
#: defaults of the CLI's ``--min-spacing``/``--min-width``/``--min-area``/
#: ``--max-fill`` flags and of a service request's ``rules``
#: (``max_fill`` caps both fill dimensions).
REQUEST_RULE_DEFAULTS: Mapping[str, int] = {
    "min_spacing": 10,
    "min_width": 10,
    "min_area": 400,
    "max_fill": 150,
}


@dataclass(frozen=True)
class DrcRules:
    """Fill design rules (Table 1: ``sm``, ``wm``, ``am``).

    ``max_fill_width``/``max_fill_height`` bound candidate fill sizes;
    foundry decks cap fill dimensions to limit the metal-slotting and
    stress impact of very large dummies, and the cap also controls the
    granularity of the candidate grid (§3.2).
    """

    min_spacing: int = 10
    min_width: int = 10
    min_area: int = 100
    max_fill_width: int = 500
    max_fill_height: int = 500

    def __post_init__(self) -> None:
        if self.min_spacing <= 0 or self.min_width <= 0 or self.min_area <= 0:
            raise ValueError("DRC rules must be positive")
        if self.min_width * self.min_width > self.min_area * 4:
            # A deck where min_area is unreachable at min_width x min_width
            # times a small aspect factor is almost certainly a typo.
            raise ValueError(
                "min_area is implausibly small relative to min_width"
            )
        if (
            self.max_fill_width < self.min_width
            or self.max_fill_height < self.min_width
        ):
            raise ValueError("max fill dimensions must admit min_width")

    def min_width_for_height(self, height: int) -> int:
        """Smallest legal width at a fixed height — Eqn. (12).

        ``w >= max(wm, am / h)`` merged from the min-width (9e) and
        min-area (9f) constraints once the orthogonal direction is
        frozen, rounded up to the integer grid.
        """
        if height <= 0:
            raise ValueError("height must be positive")
        return max(self.min_width, -(-self.min_area // height))

    def is_legal_fill(self, rect: Rect) -> bool:
        """Width/area legality of a single fill (spacing checked pairwise)."""
        return (
            rect.width >= self.min_width
            and rect.height >= self.min_width
            and rect.area >= self.min_area
            and rect.width <= self.max_fill_width
            and rect.height <= self.max_fill_height
        )


@dataclass(frozen=True)
class DrcViolation:
    """One rule violation: which rule, the offending shape(s), a measure."""

    rule: str  # "min_width" | "min_area" | "min_spacing" | "max_size"
    shape: Rect
    other: Optional[Rect] = None  # spacing violations only
    measured: float = 0.0
    required: float = 0.0

    def __str__(self) -> str:
        if self.other is not None:
            return (
                f"{self.rule}: {self.shape} vs {self.other} "
                f"(measured {self.measured}, required {self.required})"
            )
        return (
            f"{self.rule}: {self.shape} "
            f"(measured {self.measured}, required {self.required})"
        )


def check_fills(
    fills: Sequence[Rect],
    wires: Sequence[Rect],
    rules: DrcRules,
) -> List[DrcViolation]:
    """Check a fill solution against the rule deck.

    Returns the (possibly empty) list of violations.  Spacing is the
    Euclidean gap between closed boxes, matching ``e(i, j)`` of Table 1;
    overlapping same-layer shapes violate spacing with measure 0.
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
