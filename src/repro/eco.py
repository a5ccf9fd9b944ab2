"""ECO (engineering change order) incremental re-fill.

When a routed design changes after fill — a repaired net, a late buffer
insertion — rerunning fill from scratch churns the whole GDSII and
invalidates downstream signoff on untouched regions.  Production flows
instead patch incrementally:

1. commit the new/modified wires,
2. rip up only the fills the change invalidated (spacing conflicts with
   the new wires) plus everything in the windows the change touched,
3. re-fill exactly those windows, keeping the original target density
   discipline so the patched regions blend into the rest.

:func:`apply_eco` implements that flow on top of the engine's
window-restricted mode.  Everything outside the affected windows is
byte-identical before and after (the stability the tests assert).

The ECO rules themselves — which new wires are legal
(:func:`check_new_wires`), how far a change reaches (:func:`eco_halo`,
:func:`affected_windows`) and which fills it rips up
(:func:`rip_up_mask`) — live here alone; the out-of-core fill
(:func:`repro.core.stream_fill`) applies the same functions to its
streamed shapes.

For a one-shot call the function rescans the layout; a caller holding a
loaded session (:mod:`repro.service`) instead passes its cached
per-layer density ``analysis``, and the flow touches only the dirtied
windows end to end: density analysis is refreshed per dirtied window
via :func:`repro.density.analysis.refresh_analysis` instead of
recomputed globally.  Both paths produce bit-identical layouts.  The
rip-up reads each layer's fill box array
(:attr:`~repro.layout.Layer.fill_boxes`) as it is; ``fill_indexes``,
the views :func:`build_fill_indexes` hands out, are only checked
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from . import obs
from .contracts import check_rect
from .core import DummyFillEngine, FillConfig
from .density.analysis import LayerDensity, refresh_analysis
from .density.scoring import ScoreWeights
from .geometry import BoolArray, IntArray, Rect, touching
from .layout import DrcRules, Layout, WindowGrid

__all__ = [
    "EcoReport",
    "apply_eco",
    "affected_windows",
    "build_fill_indexes",
    "check_new_wires",
    "eco_halo",
    "rip_up_mask",
    "wires_from_json",
]

WindowKey = Tuple[int, int]


@dataclass
class EcoReport:
    """Outcome of an incremental re-fill.

    ``analysis`` carries the refreshed session cache when the caller
    supplied one — valid for the post-ECO layout, ready to be stored
    back on the session.  It is ``None`` on the cold (cache-free) path.
    """

    new_wires: int
    removed_fills: int
    affected_windows: List[WindowKey]
    new_fills: int
    seconds: float
    analysis: Optional[Dict[int, LayerDensity]] = field(default=None, repr=False)

    def summary(self) -> str:
        return (
            f"ECO: {self.new_wires} new wires -> ripped {self.removed_fills} "
            f"fills in {len(self.affected_windows)} windows, "
            f"re-inserted {self.new_fills} ({self.seconds:.2f}s)"
        )


def check_new_wires(
    die: Rect, layer_numbers: Sequence[int], new_wires: Mapping[int, Sequence[Rect]]
) -> None:
    """Reject a wire change naming an unknown layer, leaving the die or
    holding a zero-area or non-integer wire.

    Callers run it before committing anything, so a rejected change
    leaves the layout as it was.
    """
    for number in sorted(new_wires, key=int):
        if number not in layer_numbers:
            raise KeyError(
                f"layer {number} not in layout (has {list(layer_numbers)})"
            )
        for rect in new_wires[number]:
            check_rect(rect, name=f"new wire on layer {number}")
            if rect.is_degenerate:
                raise ValueError(f"new wire {rect} on layer {number} has zero area")
            if not die.contains(rect):
                raise ValueError(f"new wire {rect} escapes the die")


def eco_halo(rules: DrcRules, config: FillConfig) -> int:
    """Reach of a new wire: the spacing rule plus the window-edge inset."""
    return rules.min_spacing + config.effective_margin(rules.min_spacing)


def rip_up_mask(grid: WindowGrid, affected: Set[WindowKey], box: IntArray) -> BoolArray:
    """The rip-up rule over an ``(n, 4)`` int64 fill box array: row
    ``k`` goes when its closed box touches an affected window (shared
    edges and corners count)."""
    doomed = np.zeros(len(box), dtype=bool)
    for i, j in affected:
        doomed[touching(box, grid.window(i, j))] = True
    return doomed


def affected_windows(
    grid: WindowGrid,
    new_wires: Mapping[int, Sequence[Rect]],
    halo: int,
) -> Set[WindowKey]:
    """Windows whose fill a wire change can invalidate.

    A new wire affects its own windows plus any window within ``halo``
    (spacing rule + sizing trust region) of it — fills just across a
    window boundary may now violate spacing against the wire.
    """
    affected: Set[WindowKey] = set()
    for rects in new_wires.values():
        for rect in rects:
            grown = rect.expanded(halo).intersection(grid.die)
            if grown is None:
                continue
            affected.update(grid.windows_touching(grown))
    return affected


def build_fill_indexes(layout: Layout) -> Dict[int, IntArray]:
    """Each layer's fills as an ``(n, 4)`` int64 box array: the layers'
    own read-only :attr:`~repro.layout.Layer.fill_boxes`, so building
    them converts nothing.

    Row ``k`` is ``layer.fills[k]``, so :func:`apply_eco` runs the
    rip-up rule on the array and removes fills by row.
    """
    return {layer.number: layer.fill_boxes for layer in layout.layers}


def wires_from_json(data: Mapping[str, Any]) -> Dict[int, List[Rect]]:
    """Parse the wire-change spec of an ECO request.

    The wire format of the ``repro eco`` CLI and the service's
    ``eco_delta`` op: layer numbers (as JSON object keys, so strings)
    mapping to ``[xl, yl, xh, yh]`` quadruples::

        {"1": [[100, 100, 400, 140]], "2": [[0, 500, 60, 900]]}
    """
    out: Dict[int, List[Rect]] = {}
    keys: Dict[int, Any] = {}
    for key in sorted(data, key=str):
        try:
            number = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"layer key {key!r} is not an integer") from None
        if number in keys:
            raise ValueError(
                f"layer keys {keys[number]!r} and {key!r} both name layer {number}"
            )
        keys[number] = key
        entries = data[key]
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"layer {number}: expected a list of rects")
        rects: List[Rect] = []
        for entry in entries:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 4
                and all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
            ):
                raise ValueError(
                    f"layer {number}: rect {entry!r} is not [xl, yl, xh, yh]"
                )
            rects.append(Rect(entry[0], entry[1], entry[2], entry[3]))
        out[number] = rects
    return out


def _check_fill_indexes(layout: Layout, indexes: Dict[int, IntArray]) -> None:
    """Reject cached fill boxes whose rows are not the layout's fills.

    The views :func:`build_fill_indexes` hands out pass by identity
    until the fills change; any other array must equal them row for row.
    """
    for layer in layout.layers:
        index, fills = indexes.get(layer.number), layer.fill_boxes
        if index is fills:
            continue
        if index is None or not np.array_equal(index, fills):
            have = "missing" if index is None else f"{len(index)} rows"
            raise ValueError(
                f"stale fill index for layer {layer.number}: {have} that are not "
                f"the layer's {layer.num_fills} fills"
            )


def apply_eco(
    layout: Layout,
    grid: WindowGrid,
    new_wires: Mapping[int, Sequence[Rect]],
    config: Optional[FillConfig] = None,
    weights: Optional[ScoreWeights] = None,
    *,
    analysis: Optional[Dict[int, LayerDensity]] = None,
    fill_indexes: Optional[Dict[int, IntArray]] = None,
) -> EcoReport:
    """Commit ``new_wires`` and incrementally repair the fill.

    ``new_wires`` maps layer numbers to wire rectangles to add.  The
    layout must already be filled (by the engine or any other filler);
    fills outside the affected windows are left untouched.

    The keyword-only cache parameters come from a session holding the
    layout loaded (both optional):

    * ``analysis`` — the cached global density analysis of the
      pre-ECO layout (built with this config's ``effective_margin``).
      When given, only the affected windows of the changed layers are
      re-analyzed; the engine reuses everything else.
    * ``fill_indexes`` — each layer's fill boxes
      (:func:`build_fill_indexes`), checked row for row against the
      layout's fills before anything is committed, so a stale index
      leaves the layout as it was.  Always stale after this call
      (fills change).

    The returned report carries the refreshed ``analysis`` when one was
    supplied.
    """
    with obs.span("eco.apply") as sp:
        if config is None:
            config = FillConfig()
        rules = layout.rules
        check_new_wires(layout.die, layout.layer_numbers, new_wires)
        if fill_indexes is not None:
            _check_fill_indexes(layout, fill_indexes)
        changed_layers = sorted(n for n, rects in new_wires.items() if rects)
        num_new = 0
        for number in sorted(new_wires, key=int):
            rects = new_wires[number]
            layout.layer(number).add_wires(rects)
            num_new += len(rects)

        affected = affected_windows(grid, new_wires, eco_halo(rules, config))
        sp.count("eco.affected_windows", len(affected))
        sp.count("eco.changed_layers", len(changed_layers))

        # Rip up every fill whose footprint touches an affected window
        # (the rip_up_mask rule).
        removed = 0
        if affected:
            with obs.span("eco.ripup"):
                for layer in layout.layers:
                    doomed = rip_up_mask(grid, affected, layer.fill_boxes)
                    if not doomed.any():
                        continue
                    removed += int(doomed.sum())
                    layer.drop_fills(doomed)
        sp.count("eco.removed_fills", removed)

        # Re-analyze only what the wires dirtied (with a cache), then
        # re-fill only the affected windows; planning stays global so
        # the patch matches the surrounding density discipline.
        refreshed: Optional[Dict[int, LayerDensity]] = None
        if analysis is not None:
            with obs.span("eco.refresh"):
                refreshed = refresh_analysis(
                    layout,
                    grid,
                    analysis,
                    sorted(affected),
                    layers=changed_layers,
                    window_margin=config.effective_margin(rules.min_spacing),
                )
        new_fills = 0
        if affected:
            engine = DummyFillEngine(config, weights)
            report = engine.run(
                layout,
                grid,
                windows=sorted(affected),
                analysis=refreshed,
            )
            new_fills = report.num_fills
    return EcoReport(
        new_wires=num_new,
        removed_fills=removed,
        affected_windows=sorted(affected),
        new_fills=new_fills,
        seconds=sp.seconds,
        analysis=refreshed,
    )
