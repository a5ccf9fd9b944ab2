"""Scalar oracle of the litho pitch scan.

:func:`_lateral_pairs` asks a :class:`GridIndex` once per fill for the
fills facing it within the largest forbidden pitch;
:func:`check_litho` is the layout scan built on it, and
:func:`repair_litho` repairs each layer from its own layer's scan.
The array scan of :mod:`repro.litho`, one
:func:`repro.geometry.near_pairs` join per layer, must return the same
violations in the same order, and its repair the same fills.
"""

from typing import List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.layout import DrcRules, Layout
from repro.litho import LithoRules, LithoViolation, _pull_back

from .geometry.grid_index import GridIndex


def _lateral_pairs(
    fills: Sequence[Rect], max_gap: int
) -> List[Tuple[int, int, int, str]]:
    """(i, j, gap, axis) for pairs facing each other within ``max_gap``.

    A pair is *lateral* when the shapes overlap in the orthogonal axis —
    the configuration where pitch-dependent printing effects apply.
    """
    if not fills:
        return []
    cell = max(64, max(max(r.width, r.height) for r in fills) + max_gap)
    index: GridIndex[int] = GridIndex(cell)
    for k, f in enumerate(fills):
        index.insert(f, k)
    out = []
    for i, f in enumerate(fills):
        for rect, j in index.query_within(f, max_gap):
            if j <= i:
                continue
            gx, gy = f.gap_x(rect), f.gap_y(rect)
            if gy == 0 and 0 < gx <= max_gap:
                out.append((i, j, gx, "x"))
            elif gx == 0 and 0 < gy <= max_gap:
                out.append((i, j, gy, "y"))
    return out


def _check_fills(
    number: int, fills: Sequence[Rect], rules: LithoRules
) -> List[LithoViolation]:
    """The litho violations of one layer's ``fills``, holding its rects."""
    violations: List[LithoViolation] = []
    max_forbidden = max(
        (hi for _, hi in rules.forbidden_pitches), default=0
    )
    for f in fills:
        if min(f.width, f.height) < rules.min_edge:
            violations.append(
                LithoViolation(
                    "min_edge",
                    number,
                    f,
                    measured=min(f.width, f.height),
                )
            )
    for i, j, gap, _axis in _lateral_pairs(fills, max_forbidden):
        if rules.gap_is_forbidden(gap):
            violations.append(
                LithoViolation(
                    "forbidden_pitch",
                    number,
                    fills[i],
                    other=fills[j],
                    measured=gap,
                )
            )
    return violations


def check_litho(
    layout: Layout, rules: LithoRules
) -> List[LithoViolation]:
    """Every layer's litho violations, one index query per fill."""
    violations: List[LithoViolation] = []
    for layer in layout.layers:
        violations.extend(_check_fills(layer.number, layer.fills, rules))
    return violations


def repair_litho(
    layout: Layout,
    rules: LithoRules,
    drc: Optional[DrcRules] = None,
) -> int:
    """:func:`repro.litho.repair_litho` with every sweep scanning the
    repaired layer's fills through the scalar scan.  The violations hold
    the sweep's own rect list, since the repair tells fills apart by
    identity (``layer.fills`` builds new rects on every read)."""
    if drc is None:
        drc = layout.rules
    touched = 0
    for layer in layout.layers:
        for _ in range(8):  # fixed-point sweeps
            fills = layer.fills
            violations = _check_fills(layer.number, fills, rules)
            if not violations:
                break
            keep = {id(f): f for f in fills}
            replacements: List[Rect] = []
            handled = set()
            for v in violations:
                if v.kind == "min_edge":
                    keep.pop(id(v.shape), None)
                    touched += 1
                    continue
                key = (id(v.shape), id(v.other))
                if key in handled:
                    continue
                handled.add(key)
                small, big = sorted(
                    (v.shape, v.other), key=lambda r: r.area
                )
                if id(small) not in keep:
                    continue
                repaired = _pull_back(small, big, rules, drc)
                keep.pop(id(small), None)
                touched += 1
                if repaired is not None:
                    replacements.append(repaired)
            layer.clear_fills()
            layer.add_fills(list(keep.values()) + replacements)
    return touched
