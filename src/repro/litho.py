"""Lithography-friendliness checks and repair for dummy fill.

The paper's stated future work (§5): "evaluation on lithography related
impacts and methodologies considering lithograph-friendliness during
dummy fill insertion."  This module implements the standard first-order
litho constraints used for fill in production decks:

* **forbidden pitches** — at sub-wavelength nodes, certain edge-to-edge
  pitches between parallel features print with poor process windows;
  decks express them as forbidden ranges the fill pitch must avoid,
* **minimum edge length** — very short edges (tiny fills) are
  printability risks; fills below the threshold are flagged,
* **repair** — offending fills are shrunk away from the forbidden pitch
  band (fills may only shrink, preserving all DRC guarantees of the
  sizing stage) or dropped when no legal shrink exists.

The checker/repair pass runs *after* the main engine, mirroring how the
paper positions litho-awareness as an add-on to the fill flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import IntArray, Rect, near_pairs
from .layout import DrcRules, Layer, Layout

__all__ = [
    "LithoRules",
    "LithoViolation",
    "check_litho",
    "repair_litho",
]

PitchRange = Tuple[int, int]


@dataclass(frozen=True)
class LithoRules:
    """First-order lithography constraints for fill shapes.

    ``forbidden_pitches`` are closed ranges of the *gap* (edge-to-edge
    spacing) between laterally adjacent shapes; a gap inside any range
    is a violation.  ``min_edge`` flags fills with an edge shorter than
    the printable minimum.
    """

    forbidden_pitches: Tuple[PitchRange, ...] = ((45, 55),)
    min_edge: int = 0

    def __post_init__(self) -> None:
        for lo, hi in self.forbidden_pitches:
            if lo < 0 or hi < lo:
                raise ValueError(f"malformed forbidden pitch range ({lo},{hi})")

    def gap_is_forbidden(self, gap: int) -> bool:
        return any(lo <= gap <= hi for lo, hi in self.forbidden_pitches)

    def next_legal_gap(self, gap: int) -> int:
        """Smallest legal gap >= ``gap`` (walks out of forbidden bands)."""
        g = gap
        for _ in range(len(self.forbidden_pitches) + 1):
            for lo, hi in self.forbidden_pitches:
                if lo <= g <= hi:
                    g = hi + 1
                    break
            else:
                return g
        return g


@dataclass(frozen=True)
class LithoViolation:
    """One litho violation: a forbidden pitch pair or a short edge."""

    kind: str  # "forbidden_pitch" | "min_edge"
    layer: int
    shape: Rect
    other: Optional[Rect] = None
    measured: int = 0

    def __str__(self) -> str:
        if self.other is not None:
            return (
                f"{self.kind} on layer {self.layer}: {self.shape} vs "
                f"{self.other} (gap {self.measured})"
            )
        return f"{self.kind} on layer {self.layer}: {self.shape} (edge {self.measured})"


def _lateral_pairs(box: IntArray, max_gap: int) -> Tuple[IntArray, IntArray, IntArray]:
    """``(i, j, gap)`` with ``i < j`` for boxes facing each other within
    ``max_gap``, by ``(i, j)``.

    A pair is *lateral* when the shapes overlap in the orthogonal axis —
    the configuration where pitch-dependent printing effects apply.
    """
    i, j = near_pairs(box, box, max_gap)
    keep = i < j
    i, j = i[keep], j[keep]
    gx = np.maximum(0, np.maximum(box[i, 0], box[j, 0]) - np.minimum(box[i, 2], box[j, 2]))
    gy = np.maximum(0, np.maximum(box[i, 1], box[j, 1]) - np.minimum(box[i, 3], box[j, 3]))
    gap = gx + gy
    lateral = ((gx == 0) | (gy == 0)) & (gap > 0) & (gap <= max_gap)
    return i[lateral], j[lateral], gap[lateral]


def _check_layer(
    layer: Layer, fills: Sequence[Rect], rules: LithoRules
) -> List[LithoViolation]:
    """One layer's litho violations: short edges in fill order, then
    forbidden-pitch pairs by ``(i, j)``.  ``fills`` is ``layer.fills``;
    the violations hold its rects."""
    violations: List[LithoViolation] = []
    for f in fills:
        if min(f.width, f.height) < rules.min_edge:
            violations.append(
                LithoViolation(
                    "min_edge",
                    layer.number,
                    f,
                    measured=min(f.width, f.height),
                )
            )
    max_forbidden = max((hi for _, hi in rules.forbidden_pitches), default=0)
    i, j, gap = _lateral_pairs(layer.fill_boxes, max_forbidden)
    for a, b, g in zip(i.tolist(), j.tolist(), gap.tolist()):
        if rules.gap_is_forbidden(g):
            violations.append(
                LithoViolation(
                    "forbidden_pitch",
                    layer.number,
                    fills[a],
                    other=fills[b],
                    measured=g,
                )
            )
    return violations


def check_litho(
    layout: Layout, rules: LithoRules
) -> List[LithoViolation]:
    """Scan every layer's fills for litho violations (fills only —
    signal wires are fixed geometry the fill tool must work around)."""
    violations: List[LithoViolation] = []
    for layer in layout.layers:
        violations.extend(_check_layer(layer, layer.fills, rules))
    return violations


def repair_litho(
    layout: Layout,
    rules: LithoRules,
    drc: Optional[DrcRules] = None,
) -> int:
    """Shrink (or drop) fills until no litho violation remains.

    For each forbidden-pitch pair the smaller fill's facing edge is
    pulled back to the next legal gap; if that would break the DRC
    minimum width/area, the fill is dropped instead.  Short-edge fills
    are dropped.  Returns the number of fills modified or dropped.

    Shrink-only repairs cannot create *new* DRC violations, and moving
    a gap strictly larger cannot create a new forbidden pitch smaller
    than the one repaired, so a single sweep per layer converges; the
    sweep is repeated defensively until a fixed point.
    """
    if drc is None:
        drc = layout.rules
    touched = 0
    for layer in layout.layers:
        for _ in range(8):  # fixed-point sweeps
            fills = layer.fills
            violations = _check_layer(layer, fills, rules)
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


def _pull_back(
    small: Rect, big: Rect, rules: LithoRules, drc: DrcRules
) -> Optional[Rect]:
    """Shrink ``small`` away from ``big`` to the next legal gap.

    Returns the repaired rectangle, or ``None`` when no legal shrink
    exists (caller drops the fill).
    """
    gx, gy = small.gap_x(big), small.gap_y(big)
    if gy == 0 and gx > 0:
        need = rules.next_legal_gap(gx) - gx
        if small.width - need < drc.min_width:
            return None
        if small.xh <= big.xl:  # small is left of big
            new = Rect(small.xl, small.yl, small.xh - need, small.yh)
        else:
            new = Rect(small.xl + need, small.yl, small.xh, small.yh)
    elif gx == 0 and gy > 0:
        need = rules.next_legal_gap(gy) - gy
        if small.height - need < drc.min_width:
            return None
        if small.yh <= big.yl:  # small is below big
            new = Rect(small.xl, small.yl, small.xh, small.yh - need)
        else:
            new = Rect(small.xl, small.yl + need, small.xh, small.yh)
    else:
        return None
    if new.area < drc.min_area:
        return None
    return new
